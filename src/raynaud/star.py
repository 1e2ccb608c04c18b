"""Ekedahl's star product at finite truncation.

Three routes are implemented and cross-checked:

* `star_presentation` -- the generic construction: the free graded
  module on symbols V^s(x * y), dV^s(x * y), x * y over a generator
  grid bounded by the V-depth, modulo the instantiated defining
  relations (V x) * y = V(x * F y), x * (V y) = V(F x * y) and their
  d-images, then cut modulo its own Fil^(n+2) by deleting the symbols of
  V-level s >= n + 2 (`StarModel.cut`).
  `StarModel` builds each relation family and operator as one Kronecker
  block over all generator pairs of two gradings (`ZMod.kron`); the
  tests keep the symbol-by-symbol expansion as its oracle.
* `star_frobenius_bijective` -- the closed form M tensor_W N with
  F = F x F, V = V x F^(-1), d = d x 1 +/- 1 x d, valid when F is
  bijective on N.
* `star_with_R` / `derived_star` -- the four-band decomposition of
  R * M and the two-term resolution of the height blocks by
  multiplication with F^i - V^j, which computes E_(j/i+j) *^L N.
  `BandModel` is the one band model: `level` gives its pieces (each band
  copy of M carries M's relations), `matrices` turns a per-label rule
  into per-grading matrices -- `ops` (V, d, F) and `band_alpha` are such
  rules -- and `submodel` presents kernels and cokernels as towers.
  `star_with_R` returns the band counts and that level.

The closed form is kept as an independent oracle of the presentation
route: the tests compare the two wherever F is bijective on N.

All of this runs at r = 1 (the residue-field degree the whole pipeline
uses); global sign choices only rescale kernels and cokernels.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import (
    Pres,
    ZMod,
    blockdiag,
    invert_unimodular,
    kernel_into,
    minimal_gens,
    quotient_by,
)
from .rmod import (
    Level,
    LevelPiece,
    ModelTower,
    SumTower,
    Tower,
    _same_span,
    condense_level,
    mat_pow_mod,
    stabilize,
    stable_pushdown,
    sub_level,
)
from .blocks import BlockModule, make_block
from .homs import SearchExhausted, fingerprints_match, identify_block


class ClosedFormInapplicable(ValueError):
    pass


def _require_r1(*blocks):
    if any(b.r != 1 for b in blocks):
        raise NotImplementedError("the star product is implemented for r = 1")


# ---------------------------------------------------------------------------
# closed form: F bijective on N


def star_frobenius_bijective(Mb: BlockModule, Nb: BlockModule) -> Tower:
    """The tensor-product model of M * N, valid for F bijective on N."""
    _require_r1(Mb, Nb)

    class ProductTower(Tower):
        def __init__(self):
            super().__init__(Mb.p, 1)
            self._models = {}

        def gradings(self):
            gm = Mb.tower.gradings()
            gn = Nb.tower.gradings()
            return sorted({a + b for a in gm for b in gn})

        def _model_for(self, m, S_needed):
            """One shared model per precision, regrown when depth grows;
            labels nest, so projections across levels stay canonical."""
            built = self._models.get(m)
            if built is None or built.n < S_needed:
                self._models[m] = self._make_model(m, max(S_needed, 8))
            return self._models[m]

        def _make_model(self, m, S):
            LM = Mb.tower.level(m, S)
            LN = Nb.tower.level(m, S)
            R = LM.R
            pieces, V, d, F = {}, {}, {}, {}
            gm, gn = Mb.tower.gradings(), Nb.tower.gradings()
            for g in self.gradings():
                labels, rel_blocks = [], []
                parts = [(a, g - a) for a in gm if (g - a) in gn]
                sizes = []
                for a, b in parts:
                    pa, pb = LM.piece(a), LN.piece(b)
                    labels.extend((la, lb) for la in pa.labels for lb in pb.labels)
                    rel_blocks.append(
                        np.concatenate(
                            [
                                R.kron(pa.pres.rels, R.eye(pb.ngens)),
                                R.kron(R.eye(pa.ngens), pb.pres.rels),
                            ],
                            axis=1,
                        )
                    )
                    sizes.append(pa.ngens * pb.ngens)
                rels = blockdiag(R, rel_blocks, rows=sizes)
                pieces[g] = LevelPiece(labels, Pres(R, sum(sizes), rels))
                # operators as block matrices over the (a, b) partition
                V[g] = _prod_op(LM, LN, parts, parts, "V", R)
                F[g] = _prod_op(LM, LN, parts, parts, "F", R)
                parts_up = [(a, g + 1 - a) for a in gm if (g + 1 - a) in gn]
                d[g] = _prod_op(LM, LN, parts, parts_up, "d", R)
            return Level(R, S, pieces, V, d, F, r=1)

        def _build(self, m, n):
            model = self._model_for(m, n + 2)  # a depth margin of two
            return ModelTower(model, Mb.p, depth_margin=1).level(m, n)

    def _prod_op(LM, LN, parts_src, parts_dst, which, R):
        blocks_rows = []
        for a2, b2 in parts_dst:
            row = []
            for a1, b1 in parts_src:
                shape = (
                    LM.piece(a2).ngens * LN.piece(b2).ngens,
                    LM.piece(a1).ngens * LN.piece(b1).ngens,
                )
                blk = np.zeros(shape, dtype=np.int64)
                if which == "V" and (a2, b2) == (a1, b1):
                    FN = LN.F_lift(b1)
                    try:
                        Finv = invert_unimodular(FN, R) if FN.size else FN
                    except ZeroDivisionError:
                        raise ClosedFormInapplicable("closed form inapplicable: F not bijective")
                    blk = R.kron(LM.V(a1), Finv)
                elif which == "F" and (a2, b2) == (a1, b1):
                    blk = R.kron(LM.F_lift(a1), LN.F_lift(b1))
                elif which == "d":
                    if (a2, b2) == (a1 + 1, b1):
                        blk = R.kron(LM.d(a1), R.eye(LN.piece(b1).ngens))
                    elif (a2, b2) == (a1, b1 + 1):
                        blk = (-1) ** a1 * R.kron(R.eye(LM.piece(a1).ngens), LN.d(b1)) % R.q
                row.append(blk % R.q)
            blocks_rows.append(row)
        src_total = sum(LM.piece(a).ngens * LN.piece(b).ngens for a, b in parts_src)
        if not blocks_rows:
            return R.zeros(0, src_total)
        return np.block(blocks_rows).astype(np.int64) % R.q

    tower = ProductTower()
    # applicability check up front
    probe = Nb.tower.level(2, 3)
    for g in Nb.tower.gradings():
        FN = probe.F_lift(g)
        if FN.size:
            try:
                invert_unimodular(FN, probe.R)
            except ZeroDivisionError:
                raise ClosedFormInapplicable("closed form inapplicable: F not bijective on N")
        elif probe.piece(g).ngens:
            raise ClosedFormInapplicable("closed form inapplicable: F not bijective on N")
    return tower


# ---------------------------------------------------------------------------
# the generic presentation


def _add_label(model, key, g):
    """Append key to grading g of a model's labels and index it."""
    model.index[key] = (g, len(model.labels.setdefault(g, [])))
    model.labels[g].append(key)


# the lowest V-level of each symbol kind: V^s(x * y) from s = 0, dV^s(x * y) from s = 1
_LOWEST = {"g": 0, "h": 1}


class StarModel:
    """The presented model of M * N at depth S, built by Kronecker blocks.

    The symbols are V^s(x_a * y_b) ("g", s, gm, a, gn, b), 0 <= s < S, in
    grading gm + gn, and dV^s(x_a * y_b) ("h", s, gm, a, gn, b), 1 <= s < S,
    in grading gm + gn + 1, for generators x_a of M^gm and y_b of N^gn.
    Each factor pair (gm, gn) holds one contiguous block of each kind,
    ordered by (a, b) and then s, so the symbols kind^s of a pair sit at
    `_pos(kind, s, gm, gn)`: one position per (a, b).

    Every relation family, operator and `second_factor_map` is a
    Kronecker block over all (a, b) at once, placed at those positions
    for each s.  The relation V^s(x * F y) = V^(s-1)(V x * y), for
    instance, is kron(I, F_N) at the s-symbols minus kron(V_M, I) at the
    (s-1)-symbols.  Each (row, column) of a relation or operator receives
    exactly one entry, so the blocks' nonzero entries are scattered into
    each grading's matrix once, with no summation; relation columns that
    stay zero are dropped before the matrix is allocated.  Column order
    does not matter, since `Pres` sorts and deduplicates its columns.

    V shifts g^s to g^(s+1) and h^s to p h^(s+1), and d sends g^s to h^s
    for s >= 1, so for 1 <= s0 < S the columns of (dV^s0 | V^s0) span
    exactly the unit vectors of the symbols with s >= s0, and `cut(s0)`
    deletes them.  V and d keep the deleted symbols among themselves, so
    their restrictions are the induced maps; F never raises s, so the
    F-lift restricts with nothing lost.  The tests keep the `ModelTower`
    route over `rmod.fil_gens`, which powers V, as the cut's oracle.
    """

    def __init__(self, Mb: BlockModule, Nb: BlockModule, m: int, S: int):
        _require_r1(Mb, Nb)
        if S < 2:
            raise ValueError("the star model needs depth S >= 2")
        self.Mb, self.Nb, self.m, self.S = Mb, Nb, m, S
        R = self.R = ZMod(Mb.p, m)
        LM = self.LM = Mb.tower.level(m, S)
        LN = self.LN = Nb.tower.level(m, S)

        # symbol blocks in factor-pair order; _at[kind, gm, gn] is a block's offset
        self.labels, self._at = {}, {}
        for gm in Mb.tower.gradings():
            for gn in Nb.tower.gradings():
                nm, nn = LM.piece(gm).ngens, LN.piece(gn).ngens
                grid = [(a, b) for a in range(nm) for b in range(nn)]
                for kind, g in (("g", gm + gn), ("h", gm + gn + 1)):
                    if grid:
                        labs = self.labels.setdefault(g, [])
                        self._at[kind, gm, gn] = len(labs)
                        levels = range(_LOWEST[kind], S)
                        labs.extend((kind, s, gm, a, gn, b) for a, b in grid for s in levels)
        self.sizes = {g: len(v) for g, v in self.labels.items()}

        rels = {g: [] for g in self.sizes}  # grading -> entries of its relations
        width = dict.fromkeys(self.sizes, 0)  # relation columns so far

        def relations(g, count, placed):
            """count relations per column of the blocks, the t-th of them at
            the t-th row of positions: placed holds (block, positions of its
            rows, the t it reaches)."""
            ncols = placed[0][0].shape[1]
            cols = width[g] + np.arange(count * ncols).reshape(count, ncols)
            width[g] += cols.size
            rels[g] += [_entries(B, at, cols[t]) for B, at, t in placed]

        pairs = [(gm, gn) for kind, gm, gn in self._at if kind == "g"]
        every, one, rest = np.arange(S), np.arange(1, S), slice(None)
        for gm, gn in pairs:
            g, pos = gm + gn, functools.partial(self._pos, gm=gm, gn=gn)
            IM, IN = R.eye(LM.piece(gm).ngens), R.eye(LN.piece(gn).ngens)
            # V^s(X1 x * Y1 y) = V^(s-1)(X2 x * Y2 y) for s >= 1, and its d-image:
            # d V^(s-1)(X2 x * Y2 y) is an h-symbol for s >= 2, Leibniz at s = 1
            for X1, Y1, X2, Y2 in (
                (IM, LN.F_lift(gn), LM.V(gm), IN),
                (LM.F_lift(gm), IN, IM, LN.V(gn)),
            ):
                top, bot = R.kron(X1, Y1), (-R.kron(X2, Y2)) % R.q
                relations(g, S - 1, [(top, pos("g", one), rest), (bot, pos("g", one - 1), rest)])
                placed = [(top, pos("h", one), rest), (bot, pos("h", one[1:] - 1), slice(1, None))]
                placed += [
                    (B, self._pos("g", 0, *pair), slice(0, 1))
                    for B, pair in self._leibniz(gm, gn, X2, Y2, -1)
                ]
                relations(g + 1, S - 1, placed)
            # the module relations of M and N, starred with every generator of the other
            mod = np.concatenate(
                [R.kron(LM.piece(gm).pres.rels, IN), R.kron(IM, LN.piece(gn).pres.rels)], axis=1
            )
            relations(g, S, [(mod, pos("g", every), rest)])
            relations(g + 1, S - 1, [(mod, pos("h", one), rest)])

        pieces = {}
        for g, labs in self.labels.items():
            used = np.zeros(width[g], dtype=bool)
            for _, c, _ in rels[g]:
                used[c] = True
            moved = np.cumsum(used) - 1  # where each column left is moved to
            mat = R.zeros(len(labs), int(used.sum()))
            _scatter(mat, [(r, moved[c], v) for r, c, v in rels[g]])
            pieces[g] = LevelPiece(labs, Pres(R, len(labs), mat))
        self.model = Level(R, S, pieces, *self._ops(pairs), r=1)

    def cut(self, s0):
        """The model modulo Fil^s0, 1 <= s0 < S: its symbols of V-level
        s < s0, with every relation and operator restricted to them."""
        if not 1 <= s0 < self.S:
            raise ValueError(f"the star model of depth {self.S} is cut at 1 <= s0 < {self.S}")
        L, pieces, V, d, F = self.model, {}, {}, {}, {}
        keep = {g: np.flatnonzero([lab[1] < s0 for lab in labs]) for g, labs in self.labels.items()}
        for g, k in keep.items():
            rels = Pres(self.R, k.size, L.piece(g).pres.rels[k])
            pieces[g] = LevelPiece([self.labels[g][i] for i in k], rels)
            V[g], F[g] = L.V(g)[np.ix_(k, k)], L.F_lift(g)[np.ix_(k, k)]
            d[g] = L.d(g)[np.ix_(keep.get(g + 1, []), k)]
        return Level(self.R, s0, pieces, V, d, F, r=1)

    def _pos(self, kind, levels, gm, gn):
        """Positions of the symbols kind^s(x_a * y_b) of the pair (gm, gn):
        one row per level s, one column per (a, b)."""
        lo = _LOWEST[kind]
        k = self.LM.piece(gm).ngens * self.LN.piece(gn).ngens
        s = np.asarray(levels, dtype=np.int64).reshape(-1, 1)
        return self._at[kind, gm, gn] + np.arange(k) * (self.S - lo) + (s - lo)

    def _leibniz(self, gm, gn, X, Y, sign):
        """d(x * y) = dx * y + (-1)^gm x * dy for the columns x of X and y of
        Y: the blocks sign * kron(d X, Y) on the pair (gm + 1, gn) and
        sign * (-1)^gm kron(X, d Y) on (gm, gn + 1), where they are nonzero."""
        R = self.R
        out = [
            (R.kron(R.matmul(self.LM.d(gm), X), Y) * sign % R.q, (gm + 1, gn)),
            (R.kron(X, R.matmul(self.LN.d(gn), Y)) * (sign * (-1) ** gm) % R.q, (gm, gn + 1)),
        ]
        return [(B, pair) for B, pair in out if B.any()]

    def _ops(self, pairs):
        """V, d and the F-lift on the symbols."""
        R, p, S, LM, LN = self.R, self.Mb.p, self.S, self.LM, self.LN
        V, d, F = ({g: [] for g in self.sizes} for _ in range(3))  # entries per source grading
        for gm, gn in pairs:
            g, pos = gm + gn, functools.partial(self._pos, gm=gm, gn=gn)
            # V: g^s -> g^(s+1), h^s -> p h^(s+1); F: g^s -> p g^(s-1), h^s -> h^(s-1)
            for kind, shift, v_coeff, f_coeff in (("g", 0, 1, p), ("h", 1, p, 1)):
                up = pos(kind, np.arange(_LOWEST[kind] + 1, S)).ravel()
                down = pos(kind, np.arange(_LOWEST[kind], S - 1)).ravel()
                V[g + shift].append((up, down, np.full(up.size, v_coeff)))
                F[g + shift].append((down, up, np.full(up.size, f_coeff)))
            g0, h1 = pos("g", 0), pos("h", 1)
            IM, IN = R.eye(LM.piece(gm).ngens), R.eye(LN.piece(gn).ngens)
            leibniz = [(B, self._pos("g", 0, *pr)) for B, pr in self._leibniz(gm, gn, IM, IN, 1)]
            # F(x * y) = F x * F y, and F(dV(x * y)) = d(x * y)
            F[g].append(_entries(R.kron(LM.F_lift(gm), LN.F_lift(gn)), g0, g0))
            F[g + 1] += [_entries(B, at, h1) for B, at in leibniz]
            # d V^s(x * y) = dV^s(x * y) for s >= 1, and d(x * y) at s = 0
            hs, gs = pos("h", np.arange(1, S)).ravel(), pos("g", np.arange(1, S)).ravel()
            d[g].append((hs, gs, np.ones(hs.size, dtype=np.int64)))
            d[g] += [_entries(B, at, g0) for B, at in leibniz]
        sizes = self.sizes
        V, F = ({g: _scatter(R.zeros(k, k), ent[g]) for g, k in sizes.items()} for ent in (V, F))
        d = {g: _scatter(R.zeros(sizes.get(g + 1, 0), k), d[g]) for g, k in sizes.items()}
        return V, d, F

    def second_factor_map(self, fN):
        """The induced endomorphism id * f for a module map f of N given
        per grading on the level generators: kron(I, f) on each symbol
        block, at every level s."""
        R = self.R
        out = {g: R.zeros(k, k) for g, k in self.sizes.items()}
        for kind, gm, gn in self._at:
            at = self._pos(kind, np.arange(_LOWEST[kind], self.S), gm, gn)
            block = R.kron(R.eye(self.LM.piece(gm).ngens), fN[gn])
            _scatter(out[gm + gn + (kind == "h")], [_entries(block, at, at)])
        return out


def _entries(B, rows, cols):
    """The nonzero entries of the block B as (rows, cols, values), placed
    once per row of the position arrays rows and cols: each of those has
    one row per placement and one column per row (column) of B."""
    i, j = np.nonzero(B)
    return rows[:, i].ravel(), cols[:, j].ravel(), np.tile(B[i, j], len(rows))


def _scatter(out, entries):
    """out with the (rows, cols, values) entries written in, one each."""
    for r, c, v in entries:
        out[r, c] = v
    return out


def star_presentation(Mb: BlockModule, Nb: BlockModule, m: int, n: int):
    """M * N as a tower at truncation (m, n).

    The symbol model is built at depth n + 3 and cut modulo Fil^(n+2) by
    deleting its symbols of V-level s >= n + 2 (`StarModel.cut`), a margin
    of two V-steps above the requested level.  The returned tower is
    condensed to a minimal generating set; the raw symbol model (with
    its second-factor map machinery) is returned alongside.
    """
    model = StarModel(Mb, Nb, m, n + 3)
    # quotient once by the filtration before condensing: the level's
    # relation span is V- and d-stable, so the re-presentation commutes
    # with all further filtration quotients
    condensed = condense_level(model.cut(n + 2))
    return ModelTower(condensed, Mb.p, depth_margin=1), model


# ---------------------------------------------------------------------------
# the four-band decomposition of R * M and the derived star


def _terms(kind, a, g, x, coeff=1):
    """(label, coefficient) pairs for kind_a applied to a coordinate vector x of M^g."""
    return [((kind, a, g, int(k)), int(x[k]) * coeff) for k in x.nonzero()[0]]


class BandModel:
    """R * M at truncation: bands V^a(1*M), F^t*M, dV^a(1*M), F^t d*M.

    Labels ("V", a, g, idx), ("Phi", t, g, idx), ("dV", a, g, idx),
    ("Phid", t, g, idx) with 1 <= a < n_v, 0 <= t < f_depth, g a grading
    of M and idx a generator index of its level piece.  Maps out of the
    bands are given by rules: rule(kind, a, g, x) returns the image of the
    label's band applied to the coordinate vector x of M^g as `_terms`.
    """

    def __init__(self, Mb: BlockModule, m: int, n_v: int, f_depth: int):
        _require_r1(Mb)
        self.Mb, self.m, self.n_v, self.f_depth = Mb, m, n_v, f_depth
        self.R = ZMod(Mb.p, m)
        self.L = Mb.tower.level(m, n_v + f_depth + 2)
        self.index, self.labels = {}, {}
        for g in Mb.tower.gradings():
            for idx in range(self.L.piece(g).ngens):
                for a in range(1, n_v):
                    _add_label(self, ("V", a, g, idx), g)
                    _add_label(self, ("dV", a, g, idx), g + 1)
                for t in range(f_depth):
                    _add_label(self, ("Phi", t, g, idx), g)
                    _add_label(self, ("Phid", t, g, idx), g + 1)
        self.sizes = {g: len(v) for g, v in self.labels.items()}

    @functools.cached_property
    def level(self) -> Level:
        """The bands as a Level without operators: each band copy of M^g
        carries the relations of M^g."""
        copies = {}
        for (kind, a, gm, _), (g, pos) in self.index.items():
            copies.setdefault((kind, a, gm, g), []).append(pos)
        cols = {g: [] for g in self.sizes}
        for (_, _, gm, g), pos in copies.items():
            rels = self.L.piece(gm).pres.rels
            block = self.R.zeros(self.sizes[g], rels.shape[1])
            block[pos] = rels
            cols[g].append(block)
        pieces = {
            g: LevelPiece(self.labels[g], Pres(self.R, self.sizes[g], np.concatenate(c, axis=1)))
            for g, c in cols.items()
        }
        return Level(self.R, self.n_v, pieces, {}, {}, {}, r=1)

    def matrices(self, rule, dst=None, shift=0):
        """Per-grading matrices (grading g into grading g + shift of dst,
        by default this model) of a rule; labels that dst does not have
        are dropped (truncation)."""
        dst = dst or self
        q = self.R.q
        out = {
            g: self.R.zeros(dst.sizes.get(g + shift, 0), self.sizes.get(g, 0))
            for g in set(self.sizes) | set(dst.sizes)
        }
        units = {g: np.eye(self.L.piece(g).ngens, dtype=np.int64) for g in self.Mb.tower.gradings()}
        for (kind, a, gm, idx), (g, pos) in self.index.items():
            col = out[g][:, pos]
            for key, c in rule(kind, a, gm, units[gm][idx]):
                hit = dst.index.get(key)
                if hit is not None and hit[0] == g + shift:
                    col[hit[1]] = (int(col[hit[1]]) + c) % q
        return out

    def ops(self):
        """V, d and the F-lift (valid after projection one V-level down)."""
        L, p, mul = self.L, self.Mb.p, self.R.matmul

        def V(kind, a, g, x):
            if kind in ("V", "dV"):
                return _terms(kind, a + 1, g, x, 1 if kind == "V" else p)
            if a:
                return _terms(kind, a - 1, g, mul(L.V(g), x))
            if kind == "Phi":
                return _terms("V", 1, g, x)
            return _terms("dV", 1, g, x, p) + _terms("V", 1, g + 1, mul(L.d(g), x), -1)

        def d(kind, a, g, x):
            if kind == "V":
                return _terms("dV", a, g, x)
            if kind == "Phi":
                return _d_of_phi(self, a, g, x)
            if kind == "Phid":
                return _terms("Phid", a, g + 1, mul(L.d(g), x), -1)
            return []

        def F(kind, a, g, x):
            if kind in ("Phi", "Phid"):
                return _terms(kind, a + 1, g, mul(L.F_lift(g), x))
            if kind == "V":
                return _terms("Phi", 0, g, x, p) if a == 1 else _terms("V", a - 1, g, x, p)
            if a > 1:
                return _terms("dV", a - 1, g, x)
            return _terms("Phid", 0, g, x) + _terms("Phi", 0, g + 1, mul(L.d(g), x))

        return self.matrices(V), self.matrices(d, shift=1), self.matrices(F)

    def submodel(self, subs, quots=None) -> Tower:
        """The sub-object given per grading by subs[g] = `minimal_gens` of
        a span -- inside the bands, or inside the quotient quots[g] of the
        band piece when quots is given -- as a tower with the induced
        operators."""
        pieces = self.level.pieces
        if quots is not None:
            pieces = {g: LevelPiece(self.labels[g], pres) for g, pres in quots.items()}
        amb = Level(self.R, self.n_v, pieces, *self.ops(), r=1)
        return ModelTower(sub_level(amb, subs), self.Mb.p, depth_margin=1)


def _d_of_phi(band: BandModel, t, g, x):
    """d(F^t * x) = p^t F^t d * x + F^t * dx."""
    dx = band.R.matmul(band.L.d(g), x)
    return _terms("Phid", t, g, x, band.Mb.p**t) + _terms("Phi", t, g + 1, dx)


def band_alpha(E_params, band: BandModel):
    """Right multiplication by F^i - V^j on the left factor of R * N.

    Returns per-grading matrices from this band model into a band model
    with f_depth + i (the F-index can rise by i)."""
    i, j = E_params
    p, L, mul = band.Mb.p, band.L, band.R.matmul
    dst = BandModel(band.Mb, band.m, band.n_v, band.f_depth + i)

    @functools.cache
    def power(op, g, s):
        return mat_pow_mod(getattr(L, op)(g), s, band.R)

    def rule(kind, a, g, x):
        if kind == "Phi":
            if a >= j:
                terms = _terms("Phi", a - j, g, x, -(p**j))
            else:
                terms = _terms("V", j - a, g, mul(power("F_lift", g, j - a), x), -(p**a))
            return _terms("Phi", a + i, g, x) + terms
        if kind == "Phid":
            # F^t d (F^i - V^j) = p^i F^(t+i) d - (F^(t-j) d | d V^(j-t))
            if a >= j:
                terms = _terms("Phid", a - j, g, x, -1)
            else:
                # (dV^s) * x = dV^s(1 * F^s x) - V^s(1 * F^s d x)
                s = j - a
                terms = _terms("dV", s, g, mul(power("F_lift", g, s), x), -1)
                terms += _terms("V", s, g + 1, mul(power("F_lift", g + 1, s), mul(L.d(g), x)))
            return _terms("Phid", a + i, g, x, p**i) + terms
        # V^a and dV^a; alpha(dV^a(1*x)) = d(alpha(V^a(1*x))), the V-case pushed through d
        Vx = mul(power("V", g, min(a, i)), x)
        if a > i:
            terms = _terms(kind, a - i, g, Vx)
        elif kind == "V":
            terms = _terms("Phi", i - a, g, Vx)
        else:
            terms = _d_of_phi(band, i - a, g, Vx)
        return terms + _terms(kind, a + j, g, mul(power("F_lift", g, j), x), -1)

    return dst, band.matrices(rule, dst)


def star_with_R(Mb: BlockModule, m: int, n: int):
    """The four-band decomposition of R * M at V-depth n, with n F-bands
    (completed: V-bands are products, which truncation renders finite)."""
    return {
        "bands": {"V": n - 1, "dV": n - 1, "Phi": n, "Phid": n},
        "level": BandModel(Mb, m, n, n).level,
    }


def derived_star(Eb: BlockModule, Nb: BlockModule, m: int, n: int):
    """Cohomology of E_(j/i+j) *hat^L N via the two-term resolution.

    The F-bands form a colimit direction: kernels are unions over the
    band inclusions and cokernels are the images of the transition maps
    (which is what kills the top-of-band classes); the V- and precision
    directions are limits, handled by eventual images down the levels.
    The kernel bands are accepted on equal spans; the cokernel bands
    only on equal fingerprints (per-grading `min_exps`), not submodules.
    Returns {"H-1": ..., "H0": ...}, each with its model tower, "exps"
    (the per-grading normal forms at level (m, n)) and the
    identification that is always attempted: "identified" (a block name,
    "0" or None) and "status" ("identified", "unidentified", or "search
    exhausted" when a candidate with matching fingerprints could be
    neither confirmed nor excluded).  The search runs at (min(m, 2),
    min(n, 4)), and a match must then have the candidate's normal forms
    at (m, n).
    """
    if Eb.kind != "Dieudonne":
        raise ValueError("derived star is implemented along the height-block resolution")
    i, j = Eb.params["i"], Eb.params["j"]
    p = Eb.p
    nv, mv, f0 = n + 3, m + 1, max(i + j + 2, 4)

    # truncation phantoms of the kernel can take about 2m chain steps to
    # reach valuation m (their anchor drifts with the V-depth), so the
    # pushdown chain is sized accordingly; it exits early when stable
    @functools.cache
    def chain_at(k):
        """The kernels {g: K} of alpha at chain step k, stabilized in the
        F-band direction, with their band model."""

        def kernels(b):
            src = BandModel(Nb, mv + k, nv + k, f0 + b - 1)
            dst, mats = band_alpha((i, j), src)
            K = {
                g: kernel_into(mats[g], src.level.piece(g).pres, dst.level.piece(g).pres)
                for g in sorted(src.sizes)
            }
            return K, src

        what = "derived star kernel in the F-band direction"
        return stabilize(kernels, lambda a, b: _bands_agree(*a, *b), 6, what)

    K0, src0 = chain_at(0)
    stable_k = {}
    for g in K0:

        def gens_at(k, g=g):
            K, src = chain_at(k)
            return K[g], _band_select(src, src0, g)

        base = src0.level.piece(g).pres
        G = stable_pushdown(gens_at, base, 2 * mv + 4, "derived-star kernel")
        stable_k[g] = minimal_gens(G, base)
    hminus = src0.submodel(stable_k)

    # cokernel: image of the transition coker_f -> coker_(f + step).  The
    # step exceeds the band shifts so top-of-band classes can die, plus a
    # 2m margin so the induced operators on the image remain expressible
    # (classes like F^t d * x descend p-adically two indices per p-power)
    step = i + j + 2 * mv + 2

    def images(b):
        srcB = BandModel(Nb, mv, nv, f0 + b - 1 + step)
        dstA = BandModel(Nb, mv, nv, f0 + b - 1 + i)
        dstB, matsB = band_alpha((i, j), srcB)
        # one presentation per grading gives both the stats and the model
        quots = {g: quotient_by(dstB.level.piece(g).pres, matsB[g]) for g in sorted(dstA.sizes)}
        subs = {g: minimal_gens(_band_select(dstA, dstB, g), amb) for g, amb in quots.items()}
        return {g: pres.min_exps() for g, (_, pres) in subs.items()}, dstB, subs, quots

    # fingerprints only: equal per-grading min_exps, not equal submodules
    what = "derived star cokernel in the F-band direction"
    _, dstB, subs, quots = stabilize(images, lambda a, b: a[0] == b[0], 8, what)
    hzero = dstB.submodel(subs, quots)

    cands = [(f"U_{t}", make_block("Domino", p, t=t).tower) for t in (-1, 0, 1, 2)]
    cands += [("W", make_block("UnitW", p).tower), ("E", Eb.tower)]
    result = {}
    for which, tower in (("H-1", hminus), ("H0", hzero)):
        L = tower.level(m, n)
        exps = {g: L.piece(g).pres.min_exps() for g in L.gradings()}
        entry = result[which] = {"model": tower, "exps": exps}
        if fingerprints_match(tower, SumTower([], p), m, n):
            entry.update(identified="0", status="identified")
            continue
        # explicit isomorphism at a small level; the match must then
        # agree exactly (normal forms per grading) at the working level
        try:
            ident = identify_block(tower, cands, min(m, 2), min(n, 4))
        except SearchExhausted:
            entry.update(identified=None, status="search exhausted")
            continue
        if ident is not None and not fingerprints_match(tower, dict(cands)[ident[0]], m, n):
            ident = None
        entry["identified"] = ident[0] if ident else None
        entry["status"] = "identified" if ident else "unidentified"
    return result


def _bands_agree(k1, src1, k2, src2):
    for g in set(k1) | set(k2):
        if g not in k1 or g not in k2:
            return False
        amb = src2.level.piece(g).pres
        K1 = src2.R.matmul(_band_select(src1, src2, g), k1[g])  # k1[g] in src2
        if not _same_span((K1, quotient_by(amb, K1)), (k2[g], quotient_by(amb, k2[g]))):
            return False
    return True


def _band_select(src: BandModel, dst: BandModel, g):
    """Label selection at grading g: each label of src that dst also has
    maps to itself (the band inclusions and projections)."""
    M = dst.R.zeros(dst.sizes.get(g, 0), src.sizes.get(g, 0))
    for key, (gg, pos) in src.index.items():
        if gg == g and key in dst.index:
            M[dst.index[key][1], pos] = 1
    return M
