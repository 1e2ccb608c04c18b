"""Isomorphism search, block identification and cones at finite truncation.

A morphism of towers is a compatible family of level maps commuting
with V, d and with F and the projections across levels.
`_chain_solutions` writes these conditions as one linear system over a
chain of levels; `find_isomorphism` solves it over a chain of length 2
and accepts a solution that is invertible at both levels.  Solving at a
single level would keep phantom maps that do not lift up the tower
(e.g. the socle maps k -> W_m), but an isomorphism found at both chain
levels is one of the truncations in the tower sense.  `identify_block`
matches a computed tower against named blocks up to a depth offset,
and `cone_or_extension` builds the cone of k(-1) -> U_{-1}.
"""

from __future__ import annotations

import itertools

import numpy as np

from .linalg import Pres, ZMod, kernel_gens, quotient_by
from .rmod import Level, Tower, Unstable


class ShiftDepth(Tower):
    """The same tower read at depth n + offset (for level-offset matching)."""

    def __init__(self, base: Tower, offset: int):
        super().__init__(base.p, base.r)
        self.base = base
        self.offset = offset

    def gradings(self):
        return self.base.gradings()

    def _build(self, m, n):
        return self.base.level(m, n + self.offset)


def _step_maps(tower: Tower, i, hi, lo):
    """(F, proj) from chain level hi down to chain level lo (one step)."""
    (mh, nh), (ml, nl) = hi, lo
    F1 = tower.F_true(i, mh, nh)  # -> (mh, nh - 1)
    PF = tower.proj(i, (mh, nh - 1), (ml, nl))
    P = tower.proj(i, (mh, nh), (ml, nl))
    return ZMod(tower.p, ml).matmul(PF, F1), P


def _chain_solutions(src: Tower, dst: Tower, m, n, length):
    """Solve the chain system over the levels (m + min(c, 2), n + c).

    Returns (G, offsets, levels): G holds the solutions over the top
    precision, and offsets[(c, i)] = (row, nd, ns) locates the nd x ns
    block phi^(c) of grading i (stored column-major).
    """
    gradings = sorted(set(src.gradings()) | set(dst.gradings()))
    levels = [(m + min(c, 2), n + c) for c in range(length)]
    Mbig = max(mc for mc, _ in levels)
    RB = ZMod(src.p, Mbig)
    p = src.p

    offsets = {}
    lattice = []
    total = 0
    for c, (mc, nc) in enumerate(levels):
        Ls, Ld = src.level(mc, nc), dst.level(mc, nc)
        for i in gradings:
            ns, nd = Ls.piece(i).ngens, Ld.piece(i).ngens
            offsets[(c, i)] = (total, nd, ns)
            lattice.extend([mc] * (nd * ns))  # phi^(c) entries live mod p^mc
            total += nd * ns

    rows = []

    def kron_block(A, B):
        return np.kron(B.T.astype(np.int64), A.astype(np.int64)) % RB.q

    def add_equation(parts, target: Pres, mc):
        """sum_parts A phi B == 0 mod rels(target), target at precision mc."""
        if target.ngens == 0 or not parts:
            return
        width = parts[0][1].shape[0]
        E = np.zeros((width, total), dtype=np.int64)
        for off, C in parts:
            E[:, off : off + C.shape[1]] = (E[:, off : off + C.shape[1]] + C) % RB.q
        exps, P = target.normal_form()
        ncopies = width // target.ngens
        # P acts on each of the ncopies row blocks of E; zero columns stay zero
        live = E.any(axis=0)
        blocks = E[:, live].reshape(ncopies, target.ngens, -1)
        E[:, live] = RB.matmul(P, blocks).reshape(width, -1)
        scale = np.tile([p ** (Mbig - min(e, mc)) for e in exps], ncopies)
        E = (E * scale[:, None]) % RB.q
        keep = E.any(axis=1)
        if keep.any():
            rows.append(E[keep])

    for c, (mc, nc) in enumerate(levels):
        Ls, Ld = src.level(mc, nc), dst.level(mc, nc)
        for i in gradings:
            off, nd, ns = offsets[(c, i)]
            if ns == 0 or nd == 0:
                continue
            tgt = Ld.piece(i).pres
            rels = Ls.piece(i).pres.rels
            if rels.shape[1]:
                add_equation([(off, kron_block(np.eye(nd, dtype=np.int64), rels))], tgt, mc)
            # V-commutation: phi V_src - V_dst phi = 0
            add_equation(
                [
                    (off, kron_block(np.eye(nd, dtype=np.int64), Ls.V(i))),
                    (off, (-kron_block(Ld.V(i), np.eye(ns, dtype=np.int64))) % RB.q),
                ],
                tgt,
                mc,
            )
            # d-commutation into grading i + 1
            tgt_d = Ld.piece(i + 1).pres
            nd1 = Ld.piece(i + 1).ngens
            if tgt_d.ngens and nd1:
                parts = [(off, (-kron_block(Ld.d(i), np.eye(ns, dtype=np.int64))) % RB.q)]
                off1, nd_up, ns_up = offsets[(c, i + 1)]
                if nd_up and ns_up:
                    parts.append((off1, kron_block(np.eye(nd1, dtype=np.int64), Ls.d(i))))
                add_equation(parts, tgt_d, mc)
        if c >= 1:
            ml, nl = levels[c - 1]
            Ldl = dst.level(ml, nl)
            for i in gradings:
                off_hi, _, ns_hi = offsets[(c, i)]
                off_lo, nd_lo, ns_lo = offsets[(c - 1, i)]
                tgt = Ldl.piece(i).pres
                if tgt.ngens == 0 or ns_hi == 0:
                    continue
                Fs, Ps = _step_maps(src, i, levels[c], levels[c - 1])
                Fd, Pd = _step_maps(dst, i, levels[c], levels[c - 1])
                # F phi^(c) = phi^(c-1) F  and  proj phi^(c) = phi^(c-1) proj
                parts_f = [(off_hi, (-kron_block(Fd, np.eye(ns_hi, dtype=np.int64))) % RB.q)]
                parts_p = [(off_hi, (-kron_block(Pd, np.eye(ns_hi, dtype=np.int64))) % RB.q)]
                if nd_lo and ns_lo:
                    parts_f.append((off_lo, kron_block(np.eye(nd_lo, dtype=np.int64), Fs)))
                    parts_p.append((off_lo, kron_block(np.eye(nd_lo, dtype=np.int64), Ps)))
                add_equation(parts_f, tgt, ml)
                add_equation(parts_p, tgt, ml)

    if rows:
        big = np.concatenate(rows, axis=0) % RB.q
        G = kernel_gens(big, RB, src_exps=lattice)
    else:
        G = np.diag([p**e for e in lattice]).astype(np.int64) if lattice else RB.zeros(0, 0)
        G = np.concatenate([RB.eye(total), G], axis=1) if total else G
    return G, offsets, levels


def is_isomorphism_at(phi, src: Tower, dst: Tower, m, n) -> bool:
    """phi (dict grading -> matrix) is invertible at level (m, n)."""
    Ls, Ld = src.level(m, n), dst.level(m, n)
    for i in sorted(set(src.gradings()) | set(dst.gradings())):
        ps, pd = Ls.piece(i).pres, Ld.piece(i).pres
        if ps.min_exps() != pd.min_exps():
            return False
        if ps.ngens == 0:
            continue
        A = phi.get(i)
        if A is None or A.shape != (pd.ngens, ps.ngens):
            return False
        C = quotient_by(pd, A)
        if not C.is_zero():
            return False
    return True


class SearchExhausted(Unstable):
    """Every candidate of an isomorphism search failed, so whether the
    two towers are isomorphic is left undecided."""


def find_isomorphism(src: Tower, dst: Tower, m, n):
    """A tower hom invertible at both levels of a length-2 chain, or None.

    Phantom homs are harmless here: any solution that is invertible at
    (m, n) and whose chain partner is invertible at the level above is
    an isomorphism of the truncations in the tower sense.  The candidates
    are 40 random combinations of the solution columns (a fixed seed, so
    the search is reproducible), then the columns themselves.

    None is a decided answer: the per-grading normal forms differ at a
    chain level, or there is no nonzero chain solution.  When every
    candidate fails, SearchExhausted is raised instead.
    """
    G, offsets, levels = _chain_solutions(src, dst, m, n, 2)
    if not G.any():
        return None
    rng = np.random.default_rng(0)
    RB = ZMod(src.p, max(mc for mc, _ in levels))
    ncand = G.shape[1]
    # formed one at a time, in the rng's order: most searches stop early
    vectors = (RB.matmul(G, rng.integers(0, RB.q, size=ncand)) for _ in range(40))
    gradings = sorted(set(src.gradings()) | set(dst.gradings()))
    for vec in itertools.chain(vectors, G.T):
        phis = []
        for c, (mc, nc) in enumerate(levels):
            mats = {}
            for i in gradings:
                off, nd, ns = offsets[(c, i)]
                mats[i] = vec[off : off + nd * ns].reshape(ns, nd).T % src.p**mc
            if not is_isomorphism_at(mats, src, dst, mc, nc):
                break
            phis.append(mats)
        else:
            return phis[0]
    if not fingerprints_match(dst, src, m, n):
        return None
    raise SearchExhausted(
        f"isomorphism search exhausted: none of {40 + ncand} candidates is invertible "
        f"at the levels {levels}"
    )


def identify_block(model: Tower, candidates, m, n):
    """Match a computed tower against candidate blocks up to a depth offset.

    candidates: list of (name, tower).  Returns (name, offset, phi) for
    the first candidate isomorphic to the model at matched levels, or
    None.  Dimension fingerprints cut the search before any hom solve.
    A candidate whose search is exhausted is passed over; if no other
    one is identified, that SearchExhausted is raised.
    """
    exhausted = None
    for name, tower in candidates:
        for off in (0, -1, 1, -2, 2):
            if n + off < 2:
                continue
            shifted = ShiftDepth(tower, off)
            if not fingerprints_match(model, shifted, m, n):
                continue
            try:
                phi = find_isomorphism(shifted, model, m, n)
            except SearchExhausted as exc:
                exhausted = exc
                continue
            if phi is not None:
                return name, off, phi
    if exhausted is not None:
        raise exhausted
    return None


def fingerprints_match(model: Tower, cand: Tower, m, n) -> bool:
    """Equal per-grading normal forms at levels (m + k, n + k), k = 0, 1."""
    keys = set(model.gradings()) | set(cand.gradings())
    for k in (0, 1):
        Lm, Lc = model.level(m + k, n + k), cand.level(m + k, n + k)
        if any(Lm.piece(i).pres.min_exps() != Lc.piece(i).pres.min_exps() for i in keys):
            return False
    return True


class QuotientTower(Tower):
    """A tower modulo a compatible family of extra relation columns.

    extra(L) returns {grading: columns} for the base level L; the span
    must be stable under V, d and mapped into the lower span by F (true
    for the image of any tower hom), so the inherited operator matrices
    descend.
    """

    def __init__(self, base: Tower, extra):
        super().__init__(base.p, base.r)
        self.base = base
        self.extra = extra

    def gradings(self):
        return self.base.gradings()

    def _build(self, m, n):
        L = self.base.level(m, n)
        extra = self.extra(L)
        pieces = {}
        for i, pc in L.pieces.items():
            add = extra.get(i)
            if add is None or add.size == 0:
                pieces[i] = pc
            else:
                rels = np.concatenate([pc.pres.rels, add % L.R.q], axis=1)
                pieces[i] = type(pc)(pc.labels, Pres(L.R, pc.ngens, rels))
        return Level(L.R, n, pieces, dict(L.opV), dict(L.opd), dict(L.opF), r=L.r)


def canonical_map_k_to_domino(L: Level, lam):
    """The hom k(-1) -> U_{-1} with parameter lam, as a matrix into the
    U_{-1} level L.

    The image of 1 is lam * (dV^{-1} + dV^0 + dV^1 + ...): over F_p the
    compatibility lambda_j = lambda_{j+1}^p forces equal coefficients.
    """
    return {1: np.full((L.piece(1).ngens, 1), lam % L.R.q, dtype=np.int64)}


def cone_or_extension(p, lam, m=3, n=8):
    """Cone of the map k(-1) -> U_{-1} with class lam (r = 1).

    lam a unit: the cone is U_0 (explicit isomorphism of truncations is
    returned).  lam = 0: the split sum U_{-1} + k(-1)[1], returned as a
    formal object.
    """
    from .blocks import make_block
    from .formal import FormalObject

    lam = int(lam) % p
    um1 = make_block("Domino", p, t=-1)
    if lam == 0:
        kblk = make_block("ResidueK", p)
        return {"kind": "split", "object": FormalObject.of_blocks(p, 1, (um1, 0, 0), (kblk, -1, 1))}
    cone = QuotientTower(um1.tower, lambda L: canonical_map_k_to_domino(L, lam))
    # the map is injective on k (pro-stably), so the cone is the cokernel
    u0 = make_block("Domino", p, t=0)
    ident = identify_block(cone, [("U_0", u0.tower)], min(m, 3), min(n, 6))
    return {
        "kind": "U_0",
        "lam": lam,
        "cone_tower": cone,
        "identification": ident,
        "block": u0 if ident else None,
    }
