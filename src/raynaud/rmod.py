"""Graded modules over the Cartier-Dieudonne-Raynaud ring at finite truncation.

A module is handled as a *tower* of finite levels indexed by (m, n):
coefficients mod p^m and module directions modulo the standard
filtration Fil^n = V^n + d V^n.  The filtration is V- and d-stable, so
V and d are self-maps of each level; F only maps Fil^n into Fil^(n-1),
so F is typed as a map level(m, n) -> level(m, n-1), stored as an
in-level lift whose composite with the canonical projection is the true
operator.  With this typing the ring relations

    F V = V F = p,   F d V = d,   d d = 0,
    F a = sigma(a) F,   V a = sigma^(-1)(a) V

hold exactly at every level.  `check_relations` verifies the first
line; the semilinear pair is vacuous at r = 1, and the tests check it on
the r > 1 blocks.

Kernels and cohomology at a single level carry truncation phantoms
(e.g. ker(V) on W_m), so every reported quantity is the eventual value
of a chain.  `stabilize` is the one acceptance loop, along levels
(`stable_pushdown`: equal spans in the base piece), F-bands (the
derived star), s (F^s B) and k (the domino levels); it returns the
accepted value, or raises `Unstable` at the configured maximum.  A
level-chain step builds its span and that span's quotient once;
`stable_pushdown` returns the span, and each caller presents what it reads.

`fil_gens` is the one builder of Fil^s: the truncation levels of a
`ModelTower`, `standard_filtration`, the finite-length check and the
v_N map of the Hodge complex all take (dV^s | V^s) from it.

`SumTower` is the one direct-sum tower: one summand with a shift is a
grading-shifted tower, and no summand at all is the zero tower.
A level is condensed (`condense_level`) onto the generators of each
grading's own normal form, `linalg.normal_basis`; sub-objects
(`sub_level`) take theirs from `linalg.minimal_gens`.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    Pres,
    ZMod,
    blockdiag,
    induced_matrix,
    kernel_into,
    normal_basis,
    present_span,
    quotient_by,
)


class Unstable(RuntimeError):
    """A reported invariant failed to stabilize at the configured depth;
    `stabilize` attaches `what`, the `steps` allowed and the `last` two values."""

    def __init__(self, msg, what=None, steps=None, last=()):
        super().__init__(msg)
        self.what, self.steps, self.last = what, steps, last


class LevelPiece:
    """One graded component at one level: labels plus a presentation."""

    __slots__ = ("labels", "pres")

    def __init__(self, labels, pres: Pres):
        self.labels = list(labels)
        self.pres = pres

    @property
    def ngens(self):
        return self.pres.ngens


class Level:
    """A finite stage of a graded module tower."""

    def __init__(self, R: ZMod, n: int, pieces, V, d, F, r: int = 1):
        self.R = R
        self.n = n
        self.r = r
        self.pieces = pieces  # dict grading -> LevelPiece
        self.opV = V  # dict grading -> self matrix
        self.opd = d  # dict grading -> matrix into grading + 1
        self.opF = F  # dict grading -> lift matrix (true map = proj @ F)
        self._empty = LevelPiece([], Pres(R, 0))  # shared by every absent grading
        self.v_infty_z = {}  # (i, n) -> invariants._v_infty_z at this level

    def gradings(self):
        return sorted(self.pieces)

    def piece(self, i) -> LevelPiece:
        return self.pieces.get(i, self._empty)

    def mat(self, table, i, rows_piece=None):
        """Operator matrix with correct shape even for absent gradings."""
        if i in table:
            return table[i]
        rows = rows_piece.ngens if rows_piece is not None else self.piece(i).ngens
        return self.R.zeros(rows, self.piece(i).ngens)

    def V(self, i):
        return self.mat(self.opV, i)

    def d(self, i):
        return self.mat(self.opd, i, rows_piece=self.piece(i + 1))

    def F_lift(self, i):
        return self.mat(self.opF, i)


class Tower:
    """Base class: a graded module given by all of its finite levels."""

    def __init__(self, p: int, r: int = 1):
        self.p = p
        self.r = r
        self._cache = {}

    def gradings(self):
        raise NotImplementedError

    def _build(self, m: int, n: int) -> Level:
        raise NotImplementedError

    def level(self, m: int, n: int) -> Level:
        key = (m, n)
        if key not in self._cache:
            self._cache[key] = self._build(m, n)
        return self._cache[key]

    def proj(self, i: int, hi: tuple, lo: tuple) -> np.ndarray:
        """Canonical projection pieces@hi -> pieces@lo (label selection).

        This is the one projection rule: every tower's level maps select
        generators by label, so a level whose labels repeat is refused.
        """
        (mh, nh), (ml, nl) = hi, lo
        if mh < ml or nh < nl:
            raise ValueError("projection goes to a lower level")
        Lh, Ll = self.level(mh, nh), self.level(ml, nl)
        Rl = Ll.R
        hi_labels = Lh.piece(i).labels
        lo_labels = Ll.piece(i).labels
        index = {lab: k for k, lab in enumerate(hi_labels)}
        if len(index) < len(hi_labels):
            raise ValueError(f"grading {i} repeats a generator label at level {hi}")
        P = Rl.zeros(len(lo_labels), len(hi_labels))
        for a, lab in enumerate(lo_labels):
            P[a, index[lab]] = 1
        return P

    def F_true(self, i: int, m: int, n: int) -> np.ndarray:
        """The operator F as a map level(m, n) -> level(m, n-1)."""
        L = self.level(m, n)
        P = self.proj(i, (m, n), (m, n - 1))
        return self.level(m, n - 1).R.matmul(P, L.F_lift(i))


def compose_F(tower: Tower, i: int, m: int, n: int, steps: int) -> np.ndarray:
    """F^steps as a map level(m, n) -> level(m, n - steps)."""
    L = tower.level(m, n)
    A = np.eye(L.piece(i).ngens, dtype=np.int64)
    for s in range(steps):
        A = tower.level(m, n - s - 1).R.matmul(tower.F_true(i, m, n - s), A)
    return A


def mat_pow_mod(A, s: int, R: ZMod) -> np.ndarray:
    """A^s over R by repeated squaring."""
    A = R.reduce(A)
    out = None
    while s:
        if s & 1:
            out = A if out is None else R.matmul(out, A)
        s >>= 1
        if s:
            A = R.matmul(A, A)
    return R.eye(A.shape[0]) if out is None else out


def fil_gens(level: Level, s: int) -> dict:
    """Fil^s = d V^s M^(i-1) + V^s M^i of one level, per grading.

    Returns, for each grading i of the level and each grading just above
    one, the matrix (dV^s | V^s) of the map M^(i-1) + M^i -> M^i whose
    image is Fil^s M^i.  Zero columns are kept.  Each V^s is formed once.
    """
    R = level.R
    present = set(level.pieces)
    out = {}
    below = R.zeros(0, 0)  # V^s on M^(i-1); 0 x 0 where M^(i-1) is absent
    for i in sorted(present | {g + 1 for g in present}):
        vs = mat_pow_mod(level.V(i), s, R)
        out[i] = np.concatenate([R.matmul(level.d(i - 1), below), vs], axis=1)
        below = vs
    return out


def standard_filtration(level: Level, s: int):
    """Per-grading generator matrices of Fil^s, with F_p-lengths."""
    if s < 0 or s > level.n:
        raise ValueError("filtration index out of range 0..n")
    fil = fil_gens(level, s)
    out = {}
    for i in level.gradings():
        G = fil[i][:, fil[i].any(axis=0)]
        out[i] = {"gens": G, "length": present_span(G, level.piece(i).pres).length()}
    return out


# ---------------------------------------------------------------------------
# relation checking


class RelationReport:
    def __init__(self):
        self.violations = []

    def ok(self):
        return not self.violations

    def add(self, identity, grading, witness):
        self.violations.append({"identity": identity, "grading": grading, "witness": witness})

    def require_zero(self, identity, grading, A, dst: Pres):
        """Record a violation unless every column of A is zero in dst."""
        witness = _witness(A, dst)
        if witness is not None:
            self.add(identity, grading, witness)

    def identities(self):
        return sorted({v["identity"] for v in self.violations})

    def __repr__(self):
        status = "pass" if self.ok() else f"FAIL {self.identities()}"
        return f"<RelationReport {status}>"


def check_relations(tower: Tower, m: int, n: int) -> RelationReport:
    """Verify the ring identities on the (m, n) level against (m, n-1)."""
    rep = RelationReport()
    hi, lo = tower.level(m, n), tower.level(m, n - 1)
    p, Rh, Rl = tower.p, hi.R, lo.R
    for i in tower.gradings():
        piece, piece_lo = hi.piece(i), lo.piece(i)
        if piece.ngens == 0:
            continue
        P = tower.proj(i, (m, n), (m, n - 1))
        # well-definedness: relations go to relations
        rels = piece.pres.rels
        rep.require_zero("V well-defined", i, Rh.matmul(hi.V(i), rels), piece.pres)
        rep.require_zero("d well-defined", i, Rh.matmul(hi.d(i), rels), hi.piece(i + 1).pres)
        Ft = tower.F_true(i, m, n)
        rep.require_zero("F well-defined", i, Rl.matmul(Ft, rels), piece_lo.pres)
        FV = Rl.matmul(Ft, hi.V(i))
        rep.require_zero("FV = p", i, FV - p * P, piece_lo.pres)
        VF = Rl.matmul(lo.V(i), Ft)
        rep.require_zero("VF = p", i, VF - p * P, piece_lo.pres)
        lhs = Rl.matmul(tower.F_true(i + 1, m, n), Rl.matmul(hi.d(i), hi.V(i)))
        rhs = Rl.matmul(lo.d(i), P)
        rep.require_zero("FdV = d", i, lhs - rhs, lo.piece(i + 1).pres)
        dd = Rh.matmul(hi.d(i + 1), hi.d(i))
        rep.require_zero("dd = 0", i, dd, hi.piece(i + 2).pres)
    return rep


def _witness(A, dst: Pres):
    R = dst.R
    A = R.reduce(A)
    for j in range(A.shape[1]):
        if not dst.element_is_zero(A[:, j]):
            return {"generator": j, "image": [int(x) for x in A[:, j]]}
    return None


# ---------------------------------------------------------------------------
# towers built from an explicit finite model


def sub_level(amb: Level, subs) -> Level:
    """The sub-object of `amb` given per grading by subs[g] = (gens, pres),
    a minimal generating set of a span and its presentation as
    `minimal_gens` returns them.

    V, d and F are induced on those generators; `Unstable` is raised
    when an operator image leaves the span.  All images landing in one
    grading (V and F of it, d of the grading below) are solved together,
    so each destination is factored once.
    """
    R = amb.R
    pieces, V, d, F = {}, {}, {}, {}
    for g, (G, sub) in subs.items():
        pieces[g] = LevelPiece([("m", g, t) for t in range(G.shape[1])], sub)
        # (operator, source generators, target table, source grading)
        into = [(amb.V(g), G, V, g), (amb.F_lift(g), G, F, g)]
        if g - 1 in subs:
            into.append((amb.d(g - 1), subs[g - 1][0], d, g - 1))
        img = np.concatenate([R.matmul(op, Gs) for op, Gs, _, _ in into], axis=1)
        B = induced_matrix(img, G, amb.piece(g).pres)
        if B is None:
            raise Unstable("operator does not preserve the span of the chosen generators")
        off = 0
        for _, Gs, table, src in into:
            table[src] = B[:, off : off + Gs.shape[1]].copy()
            off += Gs.shape[1]
    return Level(R, amb.n, pieces, V, d, F, r=amb.r)


def condense_level(level: Level) -> Level:
    """Re-present a level on a minimal generating set per grading.

    Each grading keeps the generators of its own presentation's
    `normal_basis`, whose coordinate matrix expresses every element on
    them, so each operator is induced as coords_dst @ op @ gens_src and
    nothing is solved.  The result is isomorphic to the input with far
    fewer coordinates; filtration quotients commute with the
    re-presentation.
    """
    R = level.R
    basis = {g: normal_basis(level.piece(g).pres) for g in level.gradings()}
    pieces, V, d, F = {}, {}, {}, {}
    for g, (gens, coords, sub) in basis.items():
        pieces[g] = LevelPiece([("m", g, t) for t in range(sub.ngens)], sub)
        V[g] = R.matmul(R.matmul(coords, level.V(g)), gens)
        F[g] = R.matmul(R.matmul(coords, level.F_lift(g)), gens)
        if g + 1 in basis:
            d[g] = R.matmul(R.matmul(basis[g + 1][1], level.d(g)), gens)
    return Level(R, level.n, pieces, V, d, F, r=level.r)


class ModelTower(Tower):
    """Tower generated by one explicit Level (the model) at high depth.

    Levels are the model's own Fil-quotients with coefficients reduced;
    generators are shared, so transitions are identity matrices on
    labels.  The model must have enough depth for the requested levels.
    """

    def __init__(self, model: Level, p: int, r: int = 1, depth_margin: int = 1):
        super().__init__(p, r)
        self.model = model
        self.depth_margin = depth_margin

    def gradings(self):
        return self.model.gradings()

    def _build(self, m, n):
        if n > self.model.n - self.depth_margin:
            raise Unstable(
                f"model depth {self.model.n} cannot serve level n={n} "
                f"(margin {self.depth_margin})"
            )
        R = ZMod(self.model.R.p, min(m, self.model.R.m))
        pieces, V, d, F = {}, {}, {}, {}
        fil = fil_gens(self.model, n)
        for i in self.model.gradings():
            mp = self.model.piece(i)
            extra = fil.pop(i)
            extra = extra[:, extra.any(axis=0)]
            rels = np.concatenate([mp.pres.rels, extra], axis=1) % R.q
            pieces[i] = LevelPiece(mp.labels, Pres(R, mp.ngens, rels))
            V[i] = self.model.V(i) % R.q
            d[i] = self.model.d(i) % R.q
            F[i] = self.model.F_lift(i) % R.q
        return Level(R, n, pieces, V, d, F, r=self.r)


# ---------------------------------------------------------------------------
# direct sums with grading shifts (formal objects concentrated in one degree)


class SumTower(Tower):
    """Direct sum of block towers with grading shifts applied.

    Summand (tower, shift) contributes its grading (i + shift) piece to
    grading i here, i.e. it represents tower(shift) with the convention
    M(a)^i = M^(i+a).  `SumTower([(tower, a)], p)` is tower(a) alone and
    `SumTower([], p)` is the zero tower.
    """

    def __init__(self, summands, p, r=1):
        super().__init__(p, r)
        self.summands = list(summands)

    def gradings(self):
        out = set()
        for t, a in self.summands:
            for i in t.gradings():
                out.add(i - a)
        return sorted(out)

    def _build(self, m, n):
        R = ZMod(self.p, m)
        pieces, V, d, F = {}, {}, {}, {}
        for i in self.gradings():
            pcs = [t.level(m, n).piece(i + a) for t, a in self.summands]
            labels = [(k, lab) for k, pc in enumerate(pcs) for lab in pc.labels]
            pieces[i] = LevelPiece(labels, Pres.direct_sum(R, [pc.pres for pc in pcs]))
            V[i] = blockdiag(R, [t.level(m, n).V(i + a) for t, a in self.summands])
            F[i] = blockdiag(R, [t.level(m, n).F_lift(i + a) for t, a in self.summands])
            d[i] = blockdiag(
                R,
                [t.level(m, n).d(i + a) for t, a in self.summands],
                rows=[t.level(m, n).piece(i + 1 + a).ngens for t, a in self.summands],
            )
        return Level(R, n, pieces, V, d, F, r=self.r)


# ---------------------------------------------------------------------------
# pro-corrected kernels and subquotient dimensions


def stabilize(value_at, same, steps, what):
    """The eventual value of a chain: value_at(k) at the first k <= steps
    with same(value_at(k - 1), value_at(k)), else `Unstable`.  `value_at`
    is called lazily, in order, never past the accepted k; this loop is
    the one place that knows how many steps a quantity used."""
    last = ()
    for k in range(1, steps + 1):
        value = value_at(k)
        if last and same(last[-1], value):
            return value
        last = (*last[-1:], value)
    raise Unstable(f"{what} did not stabilize within {steps} steps", what, steps, last)


def stable_pushdown(gens_at, base_piece: Pres, steps=3, what="submodule"):
    """`stabilize` along the level chain: gens_at(k) = (gens, proj) are
    generator columns at chain step k and the projection of their level
    to the base piece, where step k - 1 and k must span the same
    submodule.  Returns the accepted span G, as columns in base_piece's
    coordinates; a caller presents what it reads of it.  Each step's
    quotient base_piece / G is built once and serves both comparisons
    the step takes part in."""

    def pushed(k):
        gens, proj = gens_at(k)
        G = base_piece.R.matmul(proj, gens)
        return G, quotient_by(base_piece, G)

    return stabilize(pushed, _same_span, steps, f"{what} along the level chain")[0]


def eventual_kernel(step, base_piece: Pres, steps=3, what="kernel"):
    """`stable_pushdown` of the kernels of step(k) = (A, src, dst, proj):
    the map A : src -> dst at chain step k and src's projection to the
    base.  Returns the accepted kernel span, unpresented."""

    def gens_at(k):
        A, src, dst, proj = step(k)
        return kernel_into(A, src, dst), proj

    return stable_pushdown(gens_at, base_piece, steps=steps, what=what)


def _same_span(a, b):
    """Whether the pairs a, b = (G, amb / span(G)) of one ambient span the
    same submodule: equal quotient relations decide it with no
    factoring; otherwise each G must vanish in the other's quotient, read
    off that quotient's cached normal form."""
    (G1, Q1), (G2, Q2) = a, b
    return np.array_equal(Q1.rels, Q2.rels) or (Q2.element_is_zero(G1) and Q1.element_is_zero(G2))
