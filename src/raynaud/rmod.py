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

hold exactly at every level and are verified by `check_relations`.

Kernels and cohomology at a single level carry truncation phantoms
(e.g. ker(V) on W_m); every reported quantity is therefore the eventual
image along level transitions, with double-step stabilization
detection (`Unstable` when the configured maximum is reached).
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    Span,
    Pres,
    ZMod,
    induced_matrix,
    kernel_into,
    map_is_welldefined,
    minimal_gens,
    present_span,
    quotient_by,
)


class Unstable(RuntimeError):
    """A reported invariant failed to stabilize at the configured depth."""


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
        """Canonical projection pieces@hi -> pieces@lo (label selection)."""
        (mh, nh), (ml, nl) = hi, lo
        if mh < ml or nh < nl:
            raise ValueError("projection goes to a lower level")
        Lh, Ll = self.level(mh, nh), self.level(ml, nl)
        Rl = Ll.R
        hi_labels = Lh.piece(i).labels
        lo_labels = Ll.piece(i).labels
        index = {lab: k for k, lab in enumerate(hi_labels)}
        P = Rl.zeros(len(lo_labels), len(hi_labels))
        for a, lab in enumerate(lo_labels):
            P[a, index[lab]] = 1
        return P

    def F_true(self, i: int, m: int, n: int) -> np.ndarray:
        """The operator F as a map level(m, n) -> level(m, n-1)."""
        L = self.level(m, n)
        P = self.proj(i, (m, n), (m, n - 1))
        return (P @ L.F_lift(i)) % self.level(m, n - 1).R.q


def compose_F(tower: Tower, i: int, m: int, n: int, steps: int) -> np.ndarray:
    """F^steps as a map level(m, n) -> level(m, n - steps)."""
    L = tower.level(m, n)
    A = np.eye(L.piece(i).ngens, dtype=np.int64)
    for s in range(steps):
        A = (tower.F_true(i, m, n - s) @ A) % tower.level(m, n - s - 1).R.q
    return A


def mat_pow_mod(A, s: int, q: int) -> np.ndarray:
    """A^s mod q by repeated squaring."""
    A = np.asarray(A, dtype=np.int64) % q
    out = None
    while s:
        if s & 1:
            out = A if out is None else (out @ A) % q
        s >>= 1
        if s:
            A = (A @ A) % q
    return np.eye(A.shape[0], dtype=np.int64) if out is None else out


def fil_gens(level: Level, i: int, s: int) -> np.ndarray:
    """Generators of Fil^s at grading i: V^s M^i + d V^s M^(i-1)."""
    R = level.R
    piece = level.piece(i)
    cols = [mat_pow_mod(level.V(i), s, R.q)]
    prev = level.piece(i - 1)
    if prev.ngens:
        dv = (level.d(i - 1) @ mat_pow_mod(level.V(i - 1), s, R.q)) % R.q
        cols.append(dv)
    G = np.concatenate(cols, axis=1) % R.q
    G = G[:, G.any(axis=0)]
    return G if G.size else R.zeros(piece.ngens, 0)


def standard_filtration(level: Level, s: int):
    """Per-grading generator matrices of Fil^s, with F_p-lengths."""
    if s < 0 or s > level.n:
        raise ValueError("filtration index out of range 0..n")
    out = {}
    for i in level.gradings():
        G = fil_gens(level, i, s)
        sub, _ = present_span(G, level.piece(i).pres)
        out[i] = {"gens": G, "length": sub.length()}
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


def check_relations(tower: Tower, m: int, n: int, scalar=None) -> RelationReport:
    """Verify the ring identities on the (m, n) level against (m, n-1).

    `scalar` may be a FieldElt; then the semilinearity identities
    F a = sigma(a) F and V a = sigma^(-1)(a) V are checked as well
    (they are vacuous at r = 1).
    """
    rep = RelationReport()
    hi, lo = tower.level(m, n), tower.level(m, n - 1)
    p = tower.p
    for i in tower.gradings():
        piece, piece_lo = hi.piece(i), lo.piece(i)
        if piece.ngens == 0:
            continue
        P = tower.proj(i, (m, n), (m, n - 1))
        # well-definedness
        if not map_is_welldefined(hi.V(i), piece.pres, piece.pres):
            rep.add("V well-defined", i, None)
        if not map_is_welldefined(hi.d(i), piece.pres, hi.piece(i + 1).pres):
            rep.add("d well-defined", i, None)
        Ft = tower.F_true(i, m, n)
        if not map_is_welldefined(Ft, piece.pres, piece_lo.pres):
            rep.add("F well-defined", i, None)
        FV = (tower.F_true(i, m, n) @ hi.V(i)) % lo.R.q
        rep.require_zero("FV = p", i, FV - p * P, piece_lo.pres)
        VF = (lo.V(i) @ Ft) % lo.R.q
        rep.require_zero("VF = p", i, VF - p * P, piece_lo.pres)
        lhs = (tower.F_true(i + 1, m, n) @ hi.d(i) @ hi.V(i)) % lo.R.q
        rhs = (lo.d(i) @ P) % lo.R.q
        rep.require_zero("FdV = d", i, lhs - rhs, lo.piece(i + 1).pres)
        dd = (hi.d(i + 1) @ hi.d(i)) % hi.R.q
        rep.require_zero("dd = 0", i, dd, hi.piece(i + 2).pres)
        if scalar is not None and tower.r > 1:
            Ma = tower.scalar_matrix(i, scalar, m, n)
            Msig = tower.scalar_matrix(i, scalar.frobenius(), m, n - 1)
            Minv = tower.scalar_matrix(i, scalar.frobenius_inverse(), m, n)
            rep.require_zero("Fa = sigma(a)F", i, (Ft @ Ma - Msig @ Ft) % lo.R.q, piece_lo.pres)
            rep.require_zero(
                "Va = sigma^-1(a)V", i, (hi.V(i) @ Ma - Minv @ hi.V(i)) % hi.R.q, piece.pres
            )
    return rep


def _witness(A, dst: Pres):
    R = dst.R
    A = R.reduce(A)
    for j in range(A.shape[1]):
        if not dst.element_is_zero(A[:, j]):
            return {"generator": j, "image": [int(x) for x in A[:, j]]}
    return None


def check_transitions(tower: Tower, m: int, n: int) -> RelationReport:
    """Transitions are surjective and commute with V, d (and F via FdV)."""
    rep = RelationReport()
    hi, lo = tower.level(m, n), tower.level(m, n - 1)
    for i in tower.gradings():
        P = tower.proj(i, (m, n), (m, n - 1))
        # surjectivity: every lo generator is hit
        C = quotient_by(lo.piece(i).pres, P)
        if not C.is_zero():
            rep.add("transition surjective", i, None)
        lhsV = (lo.V(i) @ P) % lo.R.q
        rhsV = (P @ hi.V(i)) % lo.R.q
        rep.require_zero("transition commutes with V", i, lhsV - rhsV, lo.piece(i).pres)
        Pn = tower.proj(i + 1, (m, n), (m, n - 1))
        lhsd = (lo.d(i) @ P) % lo.R.q
        rhsd = (Pn @ hi.d(i)) % lo.R.q
        rep.require_zero("transition commutes with d", i, lhsd - rhsd, lo.piece(i + 1).pres)
        if n >= 2:
            lo2 = tower.level(m, n - 2)
            P2 = tower.proj(i, (m, n - 1), (m, n - 2))
            lhsF = (P2 @ tower.F_true(i, m, n)) % lo2.R.q
            rhsF = (tower.F_true(i, m, n - 1) @ P) % lo2.R.q
            rep.require_zero("transition commutes with F", i, lhsF - rhsF, lo2.piece(i).pres)
    return rep


# ---------------------------------------------------------------------------
# towers built from an explicit finite model


def sub_level(amb: Level, spans) -> Level:
    """The sub-object of `amb` spanned per grading by the columns spans[g].

    Each grading is re-presented on a minimal generating set of its span,
    and V, d and F are induced on those generators; `Unstable` is raised
    when an operator image leaves the span.  All images landing in one
    grading (V and F of it, d of the grading below) are solved together,
    so each destination is factored once.
    """
    R = amb.R
    gens = {g: minimal_gens(G, amb.piece(g).pres) for g, G in spans.items()}

    pieces, V, d, F = {}, {}, {}, {}
    for g, G in gens.items():
        piece = amb.piece(g).pres
        sub, _ = present_span(G, piece)
        pieces[g] = LevelPiece([("m", g, t) for t in range(G.shape[1])], sub)
        # (operator, source generators, target table, source grading)
        into = [(amb.V(g), G, V, g), (amb.F_lift(g), G, F, g)]
        if g - 1 in gens:
            into.append((amb.d(g - 1), gens[g - 1], d, g - 1))
        img = np.concatenate([op @ Gs for op, Gs, _, _ in into], axis=1) % R.q
        B = induced_matrix(img, G, piece)
        if B is None:
            raise Unstable("operator does not preserve the span of the chosen generators")
        off = 0
        for _, Gs, table, src in into:
            table[src] = B[:, off : off + Gs.shape[1]].copy()
            off += Gs.shape[1]
    return Level(R, amb.n, pieces, V, d, F, r=amb.r)


def condense_level(level: Level) -> Level:
    """Re-present a level on a minimal generating set per grading.

    The result is isomorphic to the input with far fewer coordinates;
    filtration quotients commute with the re-presentation.
    """
    return sub_level(level, {g: level.R.eye(level.piece(g).ngens) for g in level.gradings()})


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
        for i in self.model.gradings():
            mp = self.model.piece(i)
            extra = fil_gens(self.model, i, n)
            rels = np.concatenate([mp.pres.rels, extra], axis=1) % R.q
            pieces[i] = LevelPiece(mp.labels, Pres(R, mp.ngens, rels))
            V[i] = self.model.V(i) % R.q
            d[i] = self.model.d(i) % R.q
            F[i] = self.model.F_lift(i) % R.q
        return Level(R, n, pieces, V, d, F, r=self.r)

    def proj(self, i, hi, lo):
        Ll = self.level(*lo)
        k = Ll.piece(i).ngens
        return Ll.R.eye(k)


# ---------------------------------------------------------------------------
# direct sums with grading shifts (formal objects concentrated in one degree)


class SumTower(Tower):
    """Direct sum of block towers with grading shifts applied.

    Summand (tower, shift) contributes its grading (i + shift) piece to
    grading i here, i.e. it represents tower(shift) with the convention
    M(a)^i = M^(i+a).
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
            labels, rel_blocks, sizes = [], [], []
            for k, (t, a) in enumerate(self.summands):
                pc = t.level(m, n).piece(i + a)
                labels.extend((k, lab) for lab in pc.labels)
                rel_blocks.append(pc.pres.rels)
                sizes.append(pc.ngens)
            rels = _blockdiag(R, rel_blocks, rows=sizes)
            pieces[i] = LevelPiece(labels, Pres(R, sum(sizes), rels))
            V[i] = _blockdiag(R, [t.level(m, n).V(i + a) for t, a in self.summands])
            F[i] = _blockdiag(R, [t.level(m, n).F_lift(i + a) for t, a in self.summands])
            d[i] = _blockdiag(
                R,
                [t.level(m, n).d(i + a) for t, a in self.summands],
                rows=[t.level(m, n).piece(i + 1 + a).ngens for t, a in self.summands],
            )
        return Level(R, n, pieces, V, d, F, r=self.r)


def _blockdiag(R, blocks, rows=None):
    if rows is None:
        rows = [b.shape[0] for b in blocks]
    cols = [b.shape[1] for b in blocks]
    out = R.zeros(sum(rows), sum(cols))
    ro = co = 0
    for b, r_, c in zip(blocks, rows, cols):
        out[ro : ro + r_, co : co + c] = b % R.q
        ro += r_
        co += c
    return out


# ---------------------------------------------------------------------------
# pro-corrected kernels and subquotient dimensions


def stable_pushdown(gens_at, base_piece: Pres, steps=3, what="submodule"):
    """Eventual image of a level-indexed submodule at the base level.

    `gens_at(k)` returns (gens, proj) for chain step k >= 1: generator
    columns at level k and the composed projection matrix from that
    level's piece down to the base piece.  Pushdowns shrink as k grows;
    the result is accepted once two consecutive spans agree.
    """
    R = base_piece.R
    prev = None
    for k in range(1, steps + 1):
        gens, proj = gens_at(k)
        G = (R.reduce(proj) @ R.reduce(gens)) % R.q
        K, _ = present_span(G, base_piece)
        if prev is not None:
            Kp, Gp = prev
            if Kp.min_exps() == K.min_exps() and _same_span(Gp, G, base_piece):
                return K, G
        prev = (K, G)
    raise Unstable(f"{what} did not stabilize along the level chain")


def eventual_kernel(step, base_piece: Pres, steps=3, what="kernel"):
    """Eventual image at the base level of the kernels along a level chain.

    `step(k)` returns (A, src, dst, proj) for chain step k >= 1: the map
    A : src -> dst at level k and the projection from src down to the
    base piece.  The kernels are pushed down by `stable_pushdown`.
    """

    def gens_at(k):
        A, src, dst, proj = step(k)
        return kernel_into(A, src, dst), proj

    return stable_pushdown(gens_at, base_piece, steps=steps, what=what)


def _same_span(G1, G2, amb: Pres):
    R = amb.R
    big1 = np.concatenate([G1, amb.rels], axis=1) % R.q
    big2 = np.concatenate([G2, amb.rels], axis=1) % R.q
    return Span(big1, R).contains_all(G2) and Span(big2, R).contains_all(G1)
