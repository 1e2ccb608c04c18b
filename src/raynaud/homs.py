"""Isomorphism search, block identification and cones at finite truncation.

A morphism of towers is a compatible family of level maps commuting
with V, d and with F and the projections across levels.
`_chain_solutions` writes these conditions as one linear system over
the chain of levels (m, n), (m + 1, n + 1), on each level's normal
basis: with (gens, coords, sub) = `normal_basis` of a grading's piece on
either side, the unknown is psi = coords_dst phi gens_src, a map between
the minimal presentations.  Since x = gens (coords x) modulo the
relations, psi -> gens_dst psi coords_src and phi -> coords_dst phi
gens_src are mutually inverse on tower maps modulo relations, so the
system has the same solutions as the one written on the levels' own
generators, with one unknown per pair of nonzero cyclic factors.
Solving at a single level would keep phantom maps that do not lift up
the tower (e.g. the socle maps k -> W_m), but an isomorphism found at
both chain levels is one of the truncations in the tower sense.

`find_isomorphism` decides its candidates on psi itself: once the
per-grading normal forms agree, each grading's block of psi is a square
map between modules with equal exponents, and by Nakayama it is an
isomorphism exactly when it is invertible mod p (`is_isomorphism_at`;
module isomorphism as in Brooksbank & Luks, "Testing isomorphism of
modules", J. Algebra 320, 2008).  Only the accepted candidate is mapped
back to phi.  `identify_block` matches a computed tower against named
blocks at the requested level: Fil^n = V^n + dV^n is defined by the
module structure, so a tower isomorphism maps level (m, n) to level
(m, n).  `cone_or_extension` builds the cone of k(-1) -> U_{-1}.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .linalg import Pres, ZMod, kernel_gens, normal_basis
from .rmod import Level, Tower, Unstable


def _step_maps(tower: Tower, i, hi, lo):
    """(F, proj) from chain level hi down to chain level lo (one step)."""
    (mh, nh), (ml, nl) = hi, lo
    F1 = tower.F_true(i, mh, nh)  # -> (mh, nh - 1)
    PF = tower.proj(i, (mh, nh - 1), (ml, nl))
    P = tower.proj(i, (mh, nh), (ml, nl))
    return ZMod(tower.p, ml).matmul(PF, F1), P


def _chain_solutions(src: Tower, dst: Tower, m, n):
    """Solve the chain system over the levels (m, n) and (m + 1, n + 1)
    on each level's normal basis.

    Returns (G, offsets, levels, bases): G holds the solutions over the
    top precision; offsets[(c, i)] = (row, kd, ks) locates the kd x ks
    block psi^(c)_i of grading i (stored column-major), and
    bases[(side, c, i)] = (gens, coords, sub) is the `normal_basis` of
    grading i at chain level c of src (side 0) or dst (side 1).  The
    level map is phi^(c)_i = gens_dst psi^(c)_i coords_src.
    """
    p = src.p
    gradings = sorted(set(src.gradings()) | set(dst.gradings()))
    levels = [(m, n), (m + 1, n + 1)]
    RB = ZMod(p, m + 1)

    bases = {}
    offsets = {}
    lattice = []
    total = 0
    for c, (mc, nc) in enumerate(levels):
        for i in gradings:
            for side, tower in enumerate((src, dst)):
                bases[side, c, i] = normal_basis(tower.level(mc, nc).piece(i).pres)
            ks, kd = bases[0, c, i][2].ngens, bases[1, c, i][2].ngens
            offsets[(c, i)] = (total, kd, ks)
            lattice.extend([mc] * (kd * ks))  # psi^(c) entries live mod p^mc
            total += kd * ks

    def on_bases(side, op, out, inp):
        """coords_out op gens_inp: an operator between the normal bases
        of (chain level, grading) inp and out, at out's precision."""
        R = ZMod(p, levels[out[0]][0])
        return R.matmul(R.matmul(bases[(side,) + out][1], op), bases[(side,) + inp][0])

    def kron_block(A, B):
        return RB.kron(B.T, A)

    def eye(k):
        return np.eye(k, dtype=np.int64)

    rows = []

    def add_equation(parts, target: Pres):
        """sum_parts A psi B == 0 in target, a `normal_basis` module: its
        relations are diagonal, so row t is scaled by p^(top - e_t)."""
        exps = target.exps
        width = parts[0][1].shape[0]
        E = np.zeros((width, total), dtype=np.int64)
        for off, C in parts:
            E[:, off : off + C.shape[1]] = (E[:, off : off + C.shape[1]] + C) % RB.q
        scale = np.tile([p ** (RB.m - e) for e in exps], width // len(exps))
        E = (E * scale[:, None]) % RB.q
        keep = E.any(axis=1)
        if keep.any():
            rows.append(E[keep])

    for c, (mc, nc) in enumerate(levels):
        Ls, Ld = src.level(mc, nc), dst.level(mc, nc)
        for i in gradings:
            off, kd, ks = offsets[(c, i)]
            if ks == 0:
                continue
            if kd:
                tgt, rels = bases[1, c, i][2], bases[0, c, i][2].rels
                if rels.shape[1]:
                    add_equation([(off, kron_block(eye(kd), rels))], tgt)
                # V-commutation: psi V_src - V_dst psi = 0
                Vs = on_bases(0, Ls.V(i), (c, i), (c, i))
                Vd = on_bases(1, Ld.V(i), (c, i), (c, i))
                add_equation(
                    [(off, kron_block(eye(kd), Vs)), (off, (-kron_block(Vd, eye(ks))) % RB.q)],
                    tgt,
                )
            # d-commutation into grading i + 1
            off1, kd1, ks1 = offsets.get((c, i + 1), (0, 0, 0))
            if kd1:
                dd = on_bases(1, Ld.d(i), (c, i + 1), (c, i))
                ds = on_bases(0, Ls.d(i), (c, i + 1), (c, i))
                parts = [(off, (-kron_block(dd, eye(ks))) % RB.q)]
                if ks1:
                    parts.append((off1, kron_block(eye(kd1), ds)))
                add_equation(parts, bases[1, c, i + 1][2])
        if c >= 1:
            for i in gradings:
                off_hi, kd_hi, ks_hi = offsets[(c, i)]
                off_lo, kd_lo, ks_lo = offsets[(c - 1, i)]
                if kd_lo == 0 or ks_hi == 0:
                    continue
                hi, lo = (c, i), (c - 1, i)
                Fs, Ps = (on_bases(0, M, lo, hi) for M in _step_maps(src, i, levels[c], levels[c - 1]))
                Fd, Pd = (on_bases(1, M, lo, hi) for M in _step_maps(dst, i, levels[c], levels[c - 1]))
                # F psi^(c) = psi^(c-1) F  and  proj psi^(c) = psi^(c-1) proj
                for Md, Ms in ((Fd, Fs), (Pd, Ps)):
                    parts = [(off_hi, (-kron_block(Md, eye(ks_hi))) % RB.q)]
                    if ks_lo:
                        parts.append((off_lo, kron_block(eye(kd_lo), Ms)))
                    add_equation(parts, bases[1, c - 1, i][2])

    big = np.concatenate(rows, axis=0) if rows else RB.zeros(0, total)
    return kernel_gens(big, RB, src_exps=lattice), offsets, levels, bases


def is_isomorphism_at(psi, p) -> bool:
    """Whether the normal-basis blocks psi (dict grading -> square
    matrix) form an isomorphism.

    Each block maps a grading's normal-basis module to one with the same
    exponents.  By Nakayama it is onto exactly when it is onto mod p, and
    an onto map between finite modules of the same order is bijective;
    so psi is an isomorphism exactly when every block is invertible mod
    p, that is, when its cokernel over F_p is zero.
    """
    F = ZMod(p, 1)
    return all(Pres(F, B.shape[0], B).is_zero() for B in psi.values())


class SearchExhausted(Unstable):
    """Every candidate of an isomorphism search failed, so whether the
    two towers are isomorphic is left undecided."""


def find_isomorphism(src: Tower, dst: Tower, m, n):
    """A tower hom invertible at both levels of a length-2 chain, or None.

    Phantom homs are harmless here: any solution that is invertible at
    (m, n) and whose chain partner is invertible at the level above is
    an isomorphism of the truncations in the tower sense.  The search
    runs only when the per-grading normal forms agree at both chain
    levels (`fingerprints_match`).  The chain system is solved on each
    level's normal basis (`_chain_solutions`); the candidates are 40
    random combinations of its solution columns, drawn one at a time
    from `random.Random(0)` (a fixed seed, so the search is
    reproducible), then the columns themselves.  Each is decided on its
    blocks psi by `is_isomorphism_at`, level by level.  Returns phi =
    gens_dst psi coords_src at (m, n), in dst's own coordinates, for the
    accepted candidate; two zero towers give the empty map.

    None is a decided answer: the per-grading normal forms differ at a
    chain level, or the towers are nonzero and there is no nonzero chain
    solution.  When every candidate fails, SearchExhausted is raised
    instead.
    """
    if not fingerprints_match(src, dst, m, n):
        return None
    G, offsets, levels, bases = _chain_solutions(src, dst, m, n)
    if G.shape[0] and not G.any():
        return None
    p = src.p
    rng = random.Random(0)
    RB = ZMod(p, levels[-1][0])
    ncand = G.shape[1]
    # formed one at a time, in the rng's order: most searches stop early
    vectors = (
        RB.matmul(G, np.array(rng.choices(range(RB.q), k=ncand), dtype=np.int64)) for _ in range(40)
    )
    gradings = sorted(set(src.gradings()) | set(dst.gradings()))

    def blocks(vec, c):
        out = {}
        for i in gradings:
            off, kd, ks = offsets[(c, i)]
            out[i] = vec[off : off + kd * ks].reshape(ks, kd).T
        return out

    for vec in itertools.chain(vectors, G.T):
        if all(is_isomorphism_at(blocks(vec, c), p) for c in range(len(levels))):
            R = ZMod(p, m)
            return {
                i: R.matmul(R.matmul(bases[1, 0, i][0], psi), bases[0, 0, i][1])
                for i, psi in blocks(vec, 0).items()
            }
    raise SearchExhausted(
        f"isomorphism search exhausted: none of {40 + ncand} candidates is invertible "
        f"at the levels {levels}"
    )


def identify_block(model: Tower, candidates, m, n):
    """Match a computed tower against candidate blocks at level (m, n).

    candidates: list of (name, tower).  Returns (name, phi) for the
    first candidate isomorphic to the model (`find_isomorphism`, whose
    fingerprint gate cuts the search before any hom solve), or None.
    Each candidate is read at the requested levels only: a tower
    isomorphism preserves Fil^n = V^n + dV^n, so it maps level (m, n)
    to level (m, n).  A candidate whose search is exhausted is passed
    over; if no other one is identified, that SearchExhausted is raised.
    """
    exhausted = None
    for name, tower in candidates:
        try:
            phi = find_isomorphism(tower, model, m, n)
        except SearchExhausted as exc:
            exhausted = exc
            continue
        if phi is not None:
            return name, phi
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


def cone_or_extension(p, lam, m, n):
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
    return {"kind": "U_0", "cone_tower": cone, "identification": ident}
