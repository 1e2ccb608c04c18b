"""Ekedahl's star product at finite truncation.

Three routes are implemented and cross-checked:

* `star_presentation` -- the generic construction: the free graded
  module on symbols V^s(x * y), dV^s(x * y), x * y over a generator
  grid bounded by the V-depth, modulo the instantiated defining
  relations (V x) * y = V(x * F y), x * (V y) = V(F x * y) and their
  d-images, then cut by the output's own standard filtration.
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
    _flatten,
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
from .homs import SearchExhausted, ShiftDepth, fingerprints_match, identify_block


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
                                np.kron(pa.pres.rels, np.eye(pb.ngens, dtype=np.int64)),
                                np.kron(np.eye(pa.ngens, dtype=np.int64), pb.pres.rels),
                            ],
                            axis=1,
                        )
                        % R.q
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
                    blk = np.kron(LM.V(a1), Finv) % R.q
                elif which == "F" and (a2, b2) == (a1, b1):
                    blk = np.kron(LM.F_lift(a1), LN.F_lift(b1)) % R.q
                elif which == "d":
                    if (a2, b2) == (a1 + 1, b1):
                        blk = np.kron(LM.d(a1), np.eye(LN.piece(b1).ngens, dtype=np.int64))
                    elif (a2, b2) == (a1, b1 + 1):
                        sign = (-1) ** a1
                        blk = (
                            sign * np.kron(np.eye(LM.piece(a1).ngens, dtype=np.int64), LN.d(b1))
                        ) % R.q
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


class StarModel:
    """The presented model of M * N at depth S, with symbol bookkeeping.

    A term (kind, s, gm, x, gn, y, coeff) stands for coeff * kind^s(x * y)
    with x, y coordinate vectors of M^gm and N^gn, expanded bilinearly over
    the symbols ("g", s, gm, a, gn, b) = V^s(x_a * y_b) and
    ("h", s, gm, a, gn, b) = dV^s(x_a * y_b).

    `_coeffs` is the one expansion: it collects a sum of terms as a
    {position: value} dict.  Each relation is kept in that form, and each
    grading's relation matrix is filled by one scatter; relations that
    vanish are dropped.  Column order does not matter, since `Pres` sorts
    and deduplicates its columns.  `_vec` gives the same sum as a dense
    vector, for the operator columns of `_ops`.
    """

    def __init__(self, Mb: BlockModule, Nb: BlockModule, m: int, S: int):
        _require_r1(Mb, Nb)
        self.Mb, self.Nb, self.m, self.S = Mb, Nb, m, S
        R = self.R = ZMod(Mb.p, m)
        LM = self.LM = Mb.tower.level(m, S)
        LN = self.LN = Nb.tower.level(m, S)

        # generator grid, indexed per output grading
        self.index, self.labels = {}, {}
        for gm in Mb.tower.gradings():
            for gn in Nb.tower.gradings():
                for a in range(LM.piece(gm).ngens):
                    for b in range(LN.piece(gn).ngens):
                        for s in range(S):
                            _add_label(self, ("g", s, gm, a, gn, b), gm + gn)
                        for s in range(1, S):
                            _add_label(self, ("h", s, gm, a, gn, b), gm + gn + 1)
        self.sizes = {g: len(v) for g, v in self.labels.items()}

        rel_cols = {g: [] for g in self.labels}
        for g, terms in self._relations():
            col = self._coeffs(*terms)
            if col:
                rel_cols[g].append(col)
        pieces = {}
        for g, labs in self.labels.items():
            cols = rel_cols[g]
            rels = R.zeros(len(labs), len(cols))
            c, pos, val = _flatten(cols, range(len(cols)))
            rels[pos, c] = val
            pieces[g] = LevelPiece(labs, Pres(R, len(labs), rels))
        self.model = Level(R, S, pieces, *self._ops(), r=1)

    def _coeffs(self, *terms):
        """A sum of terms as a {position: value} dict of its nonzero
        coordinates; positions are those of the terms' own grading."""
        q, index = self.R.q, self.index
        acc = {}
        for kind, s, gm, x, gn, y, coeff in terms:
            ys = [(b, yv) for b, yv in enumerate(y.tolist()) if yv]
            for a, xv in enumerate(x.tolist()):
                if not xv:
                    continue
                for b, yv in ys:
                    c = xv * yv * coeff % q
                    if c:
                        pos = index[(kind, s, gm, a, gn, b)][1]
                        acc[pos] = (acc.get(pos, 0) + c) % q
        return {pos: v for pos, v in acc.items() if v}

    def _vec(self, g, *terms):
        """The coordinate vector at grading g of a sum of terms."""
        vec = np.zeros(self.sizes.get(g, 0), dtype=np.int64)
        col = self._coeffs(*terms)
        vec[list(col)] = list(col.values())
        return vec

    def _d_terms(self, s, gm, x, gn, y, coeff):
        """The terms of coeff * d(V^s(x * y)): an h-symbol for s >= 1, else
        the Leibniz expansion of d(x * y) in plain symbols."""
        if s >= 1:
            return [("h", s, gm, x, gn, y, coeff)]
        return [
            ("g", 0, gm + 1, self.R.matmul(self.LM.d(gm), x), gn, y, coeff),
            ("g", 0, gm, x, gn + 1, self.R.matmul(self.LN.d(gn), y), coeff * (-1) ** gm),
        ]

    def _relations(self):
        """(grading, terms) for each instantiated relation: the defining
        relations with their d-images, and the module relations of M and N
        starred with every generator of the other factor."""
        LM, LN, S = self.LM, self.LN, self.S
        for gm in self.Mb.tower.gradings():
            IM = np.eye(LM.piece(gm).ngens, dtype=np.int64)
            for gn in self.Nb.tower.gradings():
                IN = np.eye(LN.piece(gn).ngens, dtype=np.int64)
                g = gm + gn
                for x, Vx, Fx in zip(IM.T, LM.V(gm).T, LM.F_lift(gm).T):
                    for y, Vy, Fy in zip(IN.T, LN.V(gn).T, LN.F_lift(gn).T):
                        # V^s(x * F y) = V^(s-1)((V x) * y) and
                        # V^s((F x) * y) = V^(s-1)(x * (V y)), with d-images
                        for (x1, y1), (x2, y2) in (((x, Fy), (Vx, y)), ((Fx, y), (x, Vy))):
                            for s in range(1, S):
                                top, bot = (s, gm, x1, gn, y1, 1), (s - 1, gm, x2, gn, y2, -1)
                                yield g, [("g", *top), ("g", *bot)]
                                yield g + 1, self._d_terms(*top) + self._d_terms(*bot)
                pairs = [(r, y) for r in LM.piece(gm).pres.rels.T for y in IN.T]
                pairs += [(x, r) for r in LN.piece(gn).pres.rels.T for x in IM.T]
                for x, y in pairs:
                    for s in range(S):
                        yield g, [("g", s, gm, x, gn, y, 1)]
                        if s >= 1:
                            yield g + 1, [("h", s, gm, x, gn, y, 1)]

    def _ops(self):
        """V, d and the F-lift on the symbols."""
        R, p, LM, LN = self.R, self.Mb.p, self.LM, self.LN
        V = {g: R.zeros(k, k) for g, k in self.sizes.items()}
        F = {g: R.zeros(k, k) for g, k in self.sizes.items()}
        d = {g: R.zeros(self.sizes.get(g + 1, 0), k) for g, k in self.sizes.items()}
        for (kind, s, gm, a, gn, b), (g, pos) in self.index.items():
            x = np.eye(LM.piece(gm).ngens, dtype=np.int64)[a]
            y = np.eye(LN.piece(gn).ngens, dtype=np.int64)[b]
            up = self.index.get((kind, s + 1, gm, a, gn, b))
            down = self.index.get((kind, s - 1, gm, a, gn, b))
            if up is not None:
                V[g][up[1], pos] = 1 if kind == "g" else p
            if down is not None:
                F[g][down[1], pos] = p if kind == "g" else 1
            elif kind == "g":  # F(x * y) = F x * F y
                Fx, Fy = LM.F_lift(gm)[:, a], LN.F_lift(gn)[:, b]
                F[g][:, pos] = self._vec(g, ("g", 0, gm, Fx, gn, Fy, 1))
            else:  # F(dV(x * y)) = d(x * y), the Leibniz expansion
                F[g][:, pos] = self._vec(g, *self._d_terms(0, gm, x, gn, y, 1))
            if kind == "g":
                d[g][:, pos] = self._vec(g + 1, *self._d_terms(s, gm, x, gn, y, 1))
        return V, d, F

    def second_factor_map(self, fN):
        """The induced endomorphism id * f for a module map f of N given
        per grading on the level generators."""
        R = self.R
        out = {g: R.zeros(self.sizes[g], self.sizes[g]) for g in self.sizes}
        for key, (g, pos) in self.index.items():
            kind, s, gm, a, gn, b = key
            fcol = fN[gn][:, b]
            for bb in np.nonzero(fcol)[0]:
                tgt = (kind, s, gm, a, gn, int(bb))
                gg, pp = self.index[tgt]
                out[g][pp, pos] = (out[g][pp, pos] + int(fcol[bb])) % R.q
        return out


def star_presentation(Mb: BlockModule, Nb: BlockModule, m: int, n: int):
    """M * N as a tower at truncation (m, n); the model is cut by the
    output's own standard filtration at each level.

    The symbol model is built at depth n + 3 and cut at n + 2, a margin
    of two V-steps above the requested level.  The returned tower is
    condensed to a minimal generating set; the raw symbol model (with
    its second-factor map machinery) is returned alongside.
    """
    model = StarModel(Mb, Nb, m, n + 3)
    # quotient once by the filtration before condensing: the level's
    # relation span is V- and d-stable, so the re-presentation commutes
    # with all further filtration quotients
    base = ModelTower(model.model, Mb.p, depth_margin=1).level(m, n + 2)
    condensed = condense_level(base)
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
    Returns {"H-1": ..., "H0": ...} with raw presentations, and for each
    the identification that is always attempted: "identified" (a block
    name, "0" or None), "offset" (its depth offset) and "status"
    ("identified", "unidentified", or "search exhausted" when a candidate
    with matching fingerprints could be neither confirmed nor excluded).
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
        entry = result[which] = {"model": tower, "exps": _model_exps(tower)}
        if fingerprints_match(tower, SumTower([], p), m, n):
            entry.update(identified="0", offset=0, status="identified")
            continue
        # explicit isomorphism at a small level; the match must then
        # agree exactly (normal forms per grading) at the working level
        try:
            ident = identify_block(tower, cands, min(m, 2), min(n, 4))
        except SearchExhausted:
            entry.update(identified=None, offset=None, status="search exhausted")
            continue
        if ident is not None:
            name, off, _ = ident
            if not fingerprints_match(tower, ShiftDepth(dict(cands)[name], off), m, n):
                ident = None
        entry["identified"] = ident[0] if ident else None
        entry["offset"] = ident[1] if ident else None
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


def _model_exps(tower: Tower):
    """Per-grading normal forms of a derived-star model at level (2, 4)."""
    L = tower.level(2, 4)
    return {g: L.piece(g).pres.min_exps() for g in L.gradings()}
