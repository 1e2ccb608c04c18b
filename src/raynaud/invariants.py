"""Numerical invariants of formal objects: hearts, dominoes, slopes,
Hodge and Hodge-Witt numbers, polygons, totalization, and the checker
suite (Crew, Ekedahl, symmetry, Mazur-Ogus).

Everything reduces to per-block computations on truncation towers,
combined additively over a formal sum through the shift rule
H^n(M(a)[b])^g = H^(n+b)(M)^(g+a).  Per-block results are cached.

Conventions.  The Hodge number h^{i,j} is the k-dimension of the
grading-i piece of H^j of the three-term complex

    M(-1) --u_N--> M(-1) + M --v_N--> M,      u_N x = (F^N x, -F^N d x),
                                              v_N (x, y) = d V^N x + V^N y,

in cohomological degrees [-2, 0], with N = 1.  The slope number is

    m^{i,j} = sum (1-l) mult_l(coeur H^j(M)^i)  +  sum l mult_l(coeur H^(j+1)(M)^(i-1))

over slopes l in [0,1), and

    h_W^{i,j} = m^{i,j} + T^{i,j} - 2 T^{i-1,j+1} + T^{i-2,j+2}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (
    Pres,
    ZMod,
    charpoly,
    induced_matrix,
    invert_unimodular,
    kernel_into,
    present_span,
    quotient_by,
    subquotient,
)
from .rmod import (
    Tower,
    Unstable,
    _blockdiag,
    compose_F,
    eventual_kernel,
    mat_pow_mod,
    stable_pushdown,
)
from .blocks import BlockModule
from .formal import FormalObject


@dataclass(frozen=True)
class InvariantConfig:
    m: int = 3  # coefficient precision for stabilized runs
    n: int = 8  # V-depth
    steps: int = 3  # stabilization chain length

    def require(self, n_min):
        return self if self.n >= n_min else InvariantConfig(self.m, n_min, self.steps)


DEFAULT_CONFIG = InvariantConfig()

_BLOCK_CACHE = {}


def _block_key(block: BlockModule, cfg, what):
    return (block.kind, tuple(sorted(block.params.items())), block.p, block.r, cfg, what)


def _cached(block, cfg, what, compute):
    if block.kind == "FiniteLength":
        return compute()  # custom models are not hashable by params
    key = _block_key(block, cfg, what)
    if key not in _BLOCK_CACHE:
        _BLOCK_CACHE[key] = compute()
    return _BLOCK_CACHE[key]


# ---------------------------------------------------------------------------
# hearts and domino numbers


def _v_infty_z(tower: Tower, i, m, n):
    """Generators of the stable kernel of all d V^s at level (m, n)."""
    L = tower.level(m, n)
    R = L.R
    piece = L.piece(i)
    G = R.eye(piece.ngens)
    dmat = L.d(i)
    tgt = L.piece(i + 1).pres
    Vs = R.eye(piece.ngens)
    for s in range(n + 1):
        A = (dmat @ Vs @ G) % R.q
        ker = kernel_into(A, Pres(R, G.shape[1]), tgt)
        G = (G @ ker) % R.q
        G = G[:, G.any(axis=0)] if G.size else G
        Vs = (Vs @ L.V(i)) % R.q
        if not G.size:
            break
    return G if G.size else R.zeros(piece.ngens, 0)


def _stable_v_infty_z(tower: Tower, i, m, n, steps):
    """V^-inf Z at grading i, pushed down to level (m, n) until it is stable."""
    return stable_pushdown(
        lambda k: (_v_infty_z(tower, i, m + k, n + k), tower.proj(i, (m + k, n + k), (m, n))),
        tower.level(m, n).piece(i).pres,
        steps=steps,
        what="V^-inf Z",
    )


def _f_infty_b(tower: Tower, i, m, n):
    """Generators of sum_s F^s im(d) pushed to level (m, n), accepted when
    the lengths at s - 1 and s agree for some 2 <= s <= n (else Unstable)."""
    R = ZMod(tower.p, m)
    cols = []
    prev_len = -1
    piece = tower.level(m, n).piece(i)
    for s in range(n + 1):
        Lsrc = tower.level(m, n + s)
        B = Lsrc.d(i - 1)
        if B.shape[1]:
            Fs = compose_F(tower, i, m, n + s, s)
            cols.append((Fs @ B) % R.q)
        G = np.concatenate(cols, axis=1) % R.q if cols else R.zeros(piece.ngens, 0)
        G = G[:, G.any(axis=0)] if G.size else G
        sub, _ = present_span(G, piece.pres)
        if sub.length() == prev_len and s >= 2:
            return G
        prev_len = sub.length()
    raise Unstable(f"F^inf B at grading {i} did not stabilize with s <= {n}")


def coeur(block: BlockModule, i, cfg=DEFAULT_CONFIG):
    """The heart V^{-inf}Z / F^inf B of grading i, with induced F.

    Returns a dict with the heart's presentation on the chosen
    generators and its exponents, the Frobenius matrix on those
    generators (one level down), and the free rank.
    """

    def compute():
        cfg2 = cfg.require(block.stabilization + 2)
        tower = block.tower
        m, n = cfg2.m, cfg2.n
        base = tower.level(m, n).piece(i).pres
        _, Zgens = _stable_v_infty_z(tower, i, m, n, cfg2.steps)
        B = _f_infty_b(tower, i, m, n)
        S, reps = subquotient(base, Zgens, B)
        exps = S.min_exps()
        # induced Frobenius on the heart generators, one level down
        lo = tower.level(m, n - 1)
        Pd = tower.proj(i, (m, n), (m, n - 1))
        Fimg = (tower.F_true(i, m, n) @ Zgens) % lo.R.q
        lo_gens = (Pd @ Zgens) % lo.R.q
        B_lo = _f_infty_b(tower, i, m, n - 1)
        lo_quot = quotient_by(lo.piece(i).pres, B_lo)
        Fmat = induced_matrix(Fimg, lo_gens, lo_quot)
        return {
            "heart": S,
            "exps": exps,
            "gens": Zgens,
            "frobenius": Fmat,
            "free_rank": sum(1 for e in exps if e >= m),
            "precision": m,
        }

    return _cached(block, cfg, ("coeur", i), compute)


def domino_number_tower(tower: Tower, i, cfg: InvariantConfig, r=1) -> int:
    """T^i = dim_k M^i / (V^{-inf}Z^i + V M^i) for any tower, stabilized."""
    m, n = cfg.m, cfg.n
    dims = []
    for k in (0, 1):
        L = tower.level(m + k, n + k)
        _, Zgens = _stable_v_infty_z(tower, i, m + k, n + k, cfg.steps)
        Q = quotient_by(L.piece(i).pres, np.concatenate([Zgens, L.V(i)], axis=1))
        dims.append(Q.kdim() // r)
    if dims[0] != dims[1]:
        raise Unstable(f"domino number at grading {i} did not stabilize")
    return dims[0]


def domino_number(block: BlockModule, i, cfg=DEFAULT_CONFIG) -> int:
    """T^i = dim_k M^i / (V^{-inf}Z^i + V M^i), stabilized."""

    def compute():
        cfg2 = cfg.require(block.stabilization + 2)
        return domino_number_tower(block.tower, i, cfg2, r=block.r)

    return _cached(block, cfg, ("T", i), compute)


# ---------------------------------------------------------------------------
# Newton slopes


def newton_slopes_from_charpoly(coeffs, R: ZMod):
    """Slopes (ascending, with multiplicity) from the Newton polygon of
    x^deg + c_1 x^(deg-1) + ... + c_deg; raises Unstable if the working
    precision cannot certify the polygon."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    pts = []
    for t, c in enumerate(coeffs):
        v = R.val(c)
        pts.append((t, v, v < R.m))
    if not pts[deg][2]:
        raise Unstable("valuation of the determinant exceeds the working precision")
    # lower convex hull of the certified points from (0, 0) to (deg, val(det))
    known = [(t, v) for t, v, ok in pts if ok]
    hull = [known[0]]
    for pt in known[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    # Points of unknown valuation (>= m) need no check: the hull lies on
    # or below the chord from (0, v_0) to (deg, val(det)), both of whose
    # end values are below m, so every such point lies above the hull.
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        lam = Fraction(y2 - y1, x2 - x1)
        slopes.extend([lam] * (x2 - x1))
    return slopes


def _slope_depth(block: BlockModule, m):
    """V-depth needed so the heart's free part reaches full precision."""
    if block.kind == "Dieudonne":
        i, j = block.params["i"], block.params["j"]
        return m * (i + j) + 2
    return max(m + 2, block.stabilization + 2)


def newton_slopes(block: BlockModule, i, cfg=DEFAULT_CONFIG):
    """Slope multiset of F on the free part of the heart at grading i.

    The basis of the free part at depth n and its projection to depth
    n-1 come from the same lift, so the matrix of F between them is the
    matrix of the limit Frobenius mod p^(m); its Newton polygon gives
    the slopes, certified against the working precision.
    """

    def compute():
        if block.r > 1:
            if block.slopes or block.kind in ("ResidueK", "DAlphaP", "Domino"):
                return sorted((block.slopes or {}).items()) if i == 0 else []
            raise Unstable("unsupported: supply slope metadata for r > 1")
        cfg2 = InvariantConfig(cfg.m, max(cfg.n, _slope_depth(block, cfg.m)), cfg.steps)
        data = coeur(block, i, cfg2)
        m = cfg2.m
        if data["gens"].shape[1] == 0:
            return []
        exps, P = data["heart"].normal_form()
        free = [idx for idx, e in enumerate(exps) if e >= m]
        if not free:
            return []
        Fmat = data["frobenius"]
        if Fmat is None:
            raise Unstable("heart Frobenius not expressible on the chosen generators")
        R = ZMod(block.p, m)
        F_y = (P @ (Fmat % R.q) @ invert_unimodular(P, R)) % R.q
        A = F_y[np.ix_(free, free)]
        cp = charpoly(A, R)
        lam = newton_slopes_from_charpoly(cp, R)
        out = {}
        for x in lam:
            out[x] = out.get(x, 0) + 1
        return sorted(out.items())

    return _cached(block, cfg, ("slopes", i), compute)


# ---------------------------------------------------------------------------
# R_N tensor and Hodge numbers


class TruncatedComplex:
    """Cohomology record of the three-term complex per grading."""

    def __init__(self, N, entries):
        self.N = N
        self.entries = entries  # dict (grading, degree) -> list of exponents

    def kdim(self, g, deg):
        exps = self.entries.get((g, deg), [])
        if any(e > 1 for e in exps):
            raise ValueError("entry is not a k-vector space")
        return len(exps)

    def exps(self, g, deg):
        return self.entries.get((g, deg), [])

    def cells(self):
        return sorted(self.entries)


def rn_tensor_block(block: BlockModule, N, cfg=DEFAULT_CONFIG) -> TruncatedComplex:
    """Cohomology of R_N tensor (block) per grading, stabilized."""

    def compute():
        cfg2 = cfg.require(max(block.stabilization + 2, N + 2))
        tower = block.tower
        # exhibiting W_N-level structure needs coefficient precision > N
        m, n = max(cfg2.m, N + 1), max(cfg2.n, 2 * N + 2)
        entries = {}
        gradings = set(tower.gradings()) | {g + 1 for g in tower.gradings()}
        for g in sorted(gradings):
            # kernels of v_N, u_N shrink by one p-power per chain step
            res = _rn_cohomology_at(tower, g, N, m, n, cfg2.steps + N + m)
            for deg, exps in res.items():
                if exps:
                    entries[(g, deg)] = exps
        return TruncatedComplex(N, entries)

    return _cached(block, cfg, ("rn", N), compute)


def _rn_cohomology_at(tower: Tower, g, N, m, n, steps):
    """H^0, H^-1, H^-2 of the u_N/v_N complex at grading g."""
    R = ZMod(tower.p, m)

    def pair_pres(mm, nn):
        # M^(g-1) + M^g at level (mm, nn), the middle term of the complex
        L = tower.level(mm, nn)
        a, b = L.piece(g - 1).pres, L.piece(g).pres
        return Pres(L.R, a.ngens + b.ngens, _blockdiag(L.R, [a.rels, b.rels]))

    def vN(mm, nn):
        Lx = tower.level(mm, nn)
        qx = Lx.R.q
        dv = (Lx.d(g - 1) @ mat_pow_mod(Lx.V(g - 1), N, qx)) % qx
        vn = mat_pow_mod(Lx.V(g), N, qx)
        return np.concatenate([dv, vn], axis=1) % qx

    def uN(mm, nn):
        # from level (mm, nn + N) into (mm, nn)
        Lhi = tower.level(mm, nn + N)
        FN_same = compose_F(tower, g - 1, mm, nn + N, N)
        FNd = (compose_F(tower, g, mm, nn + N, N) @ Lhi.d(g - 1)) % (tower.p**mm)
        return np.concatenate([FN_same, -FNd], axis=0) % (tower.p**mm)

    out = {}
    # H^0: cokernel of v_N (right exact, no correction needed)
    pg = tower.level(m, n).piece(g)
    out[0] = quotient_by(pg.pres, vN(m, n)).min_exps()

    # H^-1: stabilized ker(v_N) modulo im(u_N)
    def step_v(k):
        mm, nn = m + k, n + k
        P = _blockdiag(
            R, [tower.proj(g - 1, (mm, nn), (m, n)), tower.proj(g, (mm, nn), (m, n))]
        )
        return vN(mm, nn), pair_pres(mm, nn), tower.level(mm, nn).piece(g).pres, P

    amb1 = pair_pres(m, n)
    K1, K1gens = eventual_kernel(step_v, amb1, steps=steps, what="ker v_N")
    H1, _ = subquotient(amb1, K1gens, uN(m, n))
    out[-1] = H1.min_exps()

    # H^-2: stabilized kernel of u_N inside M(-1) at level (m, n + N)
    def step_u(k):
        mm, nn = m + k, n + k
        P = tower.proj(g - 1, (mm, nn + N), (m, n + N))
        return uN(mm, nn), tower.level(mm, nn + N).piece(g - 1).pres, pair_pres(mm, nn), P

    amb2 = tower.level(m, n + N).piece(g - 1).pres
    K2, K2gens = eventual_kernel(step_u, amb2, steps=steps, what="ker u_N")
    H2, _ = subquotient(amb2, K2gens, amb2.rels)
    out[-2] = H2.min_exps()
    return out


def block_hodge_table(block: BlockModule, cfg=DEFAULT_CONFIG):
    """h^{g,deg}(block) for the block placed in cohomological degree 0."""

    def compute():
        tc = rn_tensor_block(block, 1, cfg)
        table = {}
        for (g, deg), exps in tc.entries.items():
            if any(e > 1 for e in exps):
                raise AssertionError("R_1 cohomology must be killed by p")
            if exps:
                table[(g, deg)] = len(exps) // block.r
        return table

    return _cached(block, cfg, ("hodge",), compute)


def r1_tensor(X: FormalObject, cfg=DEFAULT_CONFIG) -> TruncatedComplex:
    return rn_tensor(X, 1, cfg)


def rn_tensor(X: FormalObject, N, cfg=DEFAULT_CONFIG) -> TruncatedComplex:
    entries = {}
    for s in X.summands:
        tc = rn_tensor_block(s.block, N, cfg)
        for (g, deg), exps in tc.entries.items():
            cell = (g - s.i, deg - s.j)
            entries[cell] = sorted(entries.get(cell, []) + exps)
    return TruncatedComplex(N, entries)


def hodge_numbers(X: FormalObject, cfg=DEFAULT_CONFIG):
    """h^{i,j}(X) as a dict; shifts follow H^n(M(a)[b]) = H^(n+b)(M)(a)."""
    table = {}
    for s in X.summands:
        blk = block_hodge_table(s.block, cfg)
        for (g, deg), dim in blk.items():
            cell = (g - s.i, deg - s.j)
            table[cell] = table.get(cell, 0) + dim
    return {c: v for c, v in table.items() if v}


# ---------------------------------------------------------------------------
# slope and Hodge-Witt tables


def _cell_slopes(X: FormalObject, i, j, cfg):
    """Slope multiset of the heart of H^j(X)^i (with multiplicities)."""
    out = {}
    for s in X.summands:
        if s.j != -j:
            continue
        for lam, mult in newton_slopes(s.block, i + s.i, cfg):
            out[lam] = out.get(lam, 0) + mult
    return sorted(out.items())


def domino_table(X: FormalObject, cfg=DEFAULT_CONFIG):
    table = {}
    for s in X.summands:
        for g in s.block.tower.gradings():
            T = domino_number(s.block, g, cfg)
            if T:
                cell = (g - s.i, -s.j)
                table[cell] = table.get(cell, 0) + T
    return table


def slope_numbers(X: FormalObject, cfg=DEFAULT_CONFIG):
    """m^{i,j} by the weighted-slope formula, as exact fractions."""
    cells = set()
    for s in X.summands:
        for g in s.block.tower.gradings():
            cells.add((g - s.i, -s.j))
    out = {}
    for (i, j) in set(cells) | {(i + 1, j - 1) for (i, j) in cells}:
        total = Fraction(0)
        for lam, mult in _cell_slopes(X, i, j, cfg):
            if 0 <= lam < 1:
                total += (1 - lam) * mult
        for lam, mult in _cell_slopes(X, i - 1, j + 1, cfg):
            if 0 <= lam < 1:
                total += lam * mult
        if total:
            out[(i, j)] = total
    return out


class InvariantTable:
    """The (i, j)-indexed record of h, h_W, T, m plus per-degree data."""

    def __init__(self, h, hW, T, mvals, newton=None, newton_hodge=None, betti=None, config=None):
        self.h = h
        self.hW = hW
        self.T = T
        self.m = mvals
        self.newton = newton or {}
        self.newton_hodge = newton_hodge or {}
        self.betti = betti or {}
        self.config = config

    def cells(self):
        return sorted(set(self.h) | set(self.hW) | set(self.T) | set(self.m))

    def to_json(self):
        def num(x):
            return float(x) if isinstance(x, Fraction) and x.denominator != 1 else int(x)

        payload = {
            "h": {f"{i},{j}": int(v) for (i, j), v in sorted(self.h.items())},
            "hW": {f"{i},{j}": num(v) for (i, j), v in sorted(self.hW.items())},
            "T": {f"{i},{j}": int(v) for (i, j), v in sorted(self.T.items())},
            "m": {f"{i},{j}": num(v) for (i, j), v in sorted(self.m.items())},
            "newton": {
                str(nn): [[str(sl), int(mu)] for sl, mu in poly]
                for nn, poly in sorted(self.newton.items())
            },
            "newtonHodge": {
                str(nn): [[str(sl), num(mu)] for sl, mu in poly]
                for nn, poly in sorted(self.newton_hodge.items())
            },
            "betti": {str(nn): int(v) for nn, v in sorted(self.betti.items())},
        }
        if self.config:
            payload["truncation"] = {
                "m": self.config.m,
                "n": self.config.n,
            }
        return json.dumps(payload, sort_keys=True)

    def to_markdown(self, key="hW"):
        table = getattr(self, key)
        if not table:
            return f"(empty {key} table)\n"
        imax = max(i for i, _ in table)
        jmax = max(j for _, j in table)
        imin = min(0, min(i for i, _ in table))
        jmin = min(0, min(j for _, j in table))
        lines = [f"{key}^(i,j) grid (rows j descending, columns i ascending):", ""]
        header = "| j\\i | " + " | ".join(str(i) for i in range(imin, imax + 1)) + " |"
        sep = "|" + "---|" * (imax - imin + 2)
        lines += [header, sep]
        for j in range(jmax, jmin - 1, -1):
            row = [f"| {j} |"]
            for i in range(imin, imax + 1):
                row.append(f" {table.get((i, j), 0)} |")
            lines.append("".join(row))
        return "\n".join(lines) + "\n"


def hodge_witt_numbers(X: FormalObject, cfg=DEFAULT_CONFIG) -> InvariantTable:
    mvals = slope_numbers(X, cfg)
    T = domino_table(X, cfg)
    h = hodge_numbers(X, cfg)
    cells = set(mvals) | set(h)
    for (i, j) in list(T):
        cells |= {(i, j), (i + 1, j - 1), (i + 2, j - 2)}
    hW = {}
    for (i, j) in cells:
        val = (
            mvals.get((i, j), Fraction(0))
            + T.get((i, j), 0)
            - 2 * T.get((i - 1, j + 1), 0)
            + T.get((i - 2, j + 2), 0)
        )
        if val:
            hW[(i, j)] = val
    newton, nh, betti = {}, {}, {}
    degs = sorted({i + j for (i, j) in set(h) | set(hW) | set(T) | set(mvals)})
    for ndeg in degs:
        newton[ndeg] = newton_polygon(X, ndeg, cfg)
        nh[ndeg] = newton_hodge_points(X, ndeg, cfg, mvals)
    tot = totalize(X, cfg.m, cfg)
    for ndeg, data in tot.items():
        betti[ndeg] = data["betti"]
    return InvariantTable(h, hW, T, mvals, newton, nh, betti, cfg)


# ---------------------------------------------------------------------------
# totalization


def totalize(X: FormalObject, precision, cfg=DEFAULT_CONFIG):
    """Cohomology of Tot(X) over W_precision: free ranks and torsion."""
    out = {}
    for s in X.summands:
        block_tot = _block_totalization(s.block, precision, cfg)
        for deg, exps in block_tot.items():
            nn = deg - s.i - s.j
            out.setdefault(nn, []).extend(exps)
    result = {}
    for nn, exps in sorted(out.items()):
        betti = sum(1 for e in exps if e >= precision)
        torsion = sorted(e for e in exps if 0 < e < precision)
        if betti or torsion:
            result[nn] = {"betti": betti, "torsion": torsion}
    return result


def _block_totalization(block: BlockModule, precision, cfg):
    def compute():
        cfg2 = cfg.require(block.stabilization + 2)
        tower = block.tower
        n = cfg2.n
        out = {}
        gradings = sorted(set(tower.gradings()) | {g + 1 for g in tower.gradings()})
        for g in gradings:
            exps_pair = []
            for mm in (precision, precision + 1):
                L = tower.level(mm, n)
                base = L.piece(g).pres

                def step(k, mm=mm):
                    Lk = tower.level(mm + k, n + k)
                    P = tower.proj(g, (mm + k, n + k), (mm, n))
                    return Lk.d(g), Lk.piece(g).pres, Lk.piece(g + 1).pres, P

                K, Kgens = eventual_kernel(step, base, steps=cfg2.steps, what="ker d")
                H, _ = subquotient(base, Kgens, L.d(g - 1))
                exps_pair.append(H.min_exps())
            lo, hi = exps_pair
            # free = exponents that keep growing with the precision
            free = min(
                sum(1 for e in lo if e >= precision),
                sum(1 for e in hi if e >= precision + 1),
            )
            torsion = sorted(e for e in hi if 0 < e < precision + 1)
            if sorted(torsion + [precision] * free) != sorted(e for e in lo if e > 0):
                raise Unstable("totalization did not stabilize in the precision direction")
            exps = torsion + [precision] * free
            if exps:
                out[g] = exps
        return out

    return _cached(block, (cfg, precision), ("tot",), compute)


# ---------------------------------------------------------------------------
# polygons


def newton_polygon(X: FormalObject, ndeg, cfg=DEFAULT_CONFIG):
    """Slopes (with multiplicity) of the degree-n crystal: the grading-i
    cell contributes its heart slopes twisted by p^i."""
    cells = set()
    for s in X.summands:
        for g in s.block.tower.gradings():
            cells.add(g - s.i)
    out = {}
    for i in sorted(cells):
        j = ndeg - i
        for lam, mult in _cell_slopes(X, i, j, cfg):
            out[lam + i] = out.get(lam + i, 0) + mult
    return sorted(out.items())


def newton_hodge_points(X: FormalObject, ndeg, cfg=DEFAULT_CONFIG, mvals=None):
    """The integral-slope polygon: slope i with multiplicity m^{i, n-i}."""
    if mvals is None:
        mvals = slope_numbers(X, cfg)
    out = []
    for (i, j), v in sorted(mvals.items()):
        if i + j == ndeg and v:
            out.append((Fraction(i), v))
    return out


def _polygon_vertices(slope_mults):
    """Vertices of the polygon with the given (slope, multiplicity) runs."""
    x = Fraction(0)
    y = Fraction(0)
    pts = [(x, y)]
    for lam, mult in sorted(slope_mults):
        x += mult
        y += lam * mult
        pts.append((x, y))
    return pts


def _polygon_value(pts, x):
    x = Fraction(x)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x1 <= x <= x2:
            if x2 == x1:
                return y1
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return pts[-1][1] if pts else Fraction(0)


def newton_hodge_polygon(X: FormalObject, ndeg, cfg=DEFAULT_CONFIG):
    """Both polygons in total degree n plus the lies-below certificate."""
    newton = newton_polygon(X, ndeg, cfg)
    nh = newton_hodge_points(X, ndeg, cfg)
    npts = _polygon_vertices(newton)
    hpts = _polygon_vertices(nh)
    same_endpoints = (not newton and not nh) or (
        npts[0] == hpts[0] and npts[-1] == hpts[-1]
    )
    below = True
    for x, _ in hpts + npts:
        if _polygon_value(hpts, x) > _polygon_value(npts, x):
            below = False
    integral = all(lam.denominator == 1 for lam, _ in nh)
    return {
        "newton": newton,
        "newton_hodge": nh,
        "same_endpoints": same_endpoints,
        "below": below,
        "integral_slopes": integral,
        "pass": same_endpoints and below and integral,
    }


# ---------------------------------------------------------------------------
# checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def __bool__(self):
        return self.passed


def crew_check(X: FormalObject, i, cfg=DEFAULT_CONFIG) -> CheckResult:
    table = hodge_witt_numbers(X, cfg)
    js = sorted({j for (ii, j) in set(table.h) | set(table.hW) if ii == i})
    lhs = sum((-1) ** j * table.hW.get((i, j), 0) for j in js)
    rhs = sum((-1) ** j * table.h.get((i, j), 0) for j in js)
    return CheckResult("crew", lhs == rhs, {"i": i, "hW_sum": lhs, "h_sum": rhs})


def ekedahl_check(X: FormalObject, cfg=DEFAULT_CONFIG) -> CheckResult:
    table = hodge_witt_numbers(X, cfg)
    bad = []
    equal = []
    strict = []
    for cell in sorted(set(table.h) | set(table.hW)):
        hw = table.hW.get(cell, 0)
        h = table.h.get(cell, 0)
        if hw > h:
            bad.append(cell)
        elif hw == h:
            equal.append(cell)
        else:
            strict.append(cell)
    return CheckResult(
        "ekedahl", not bad, {"violations": bad, "equalities": equal, "strict": strict}
    )


def symmetry_check(X: FormalObject, N, cfg=DEFAULT_CONFIG, max_total=None) -> CheckResult:
    table = hodge_witt_numbers(X, cfg)
    cells = set(table.hW)
    hodge_deltas = {}
    serre_deltas = {}
    for (i, j) in sorted(cells | {(j, i) for (i, j) in cells}):
        if max_total is not None and i + j > max_total:
            continue
        dlt = table.hW.get((i, j), 0) - table.hW.get((j, i), 0)
        if dlt:
            hodge_deltas[(i, j)] = dlt
        dls = table.hW.get((i, j), 0) - table.hW.get((N - i, N - j), 0)
        if dls:
            serre_deltas[(i, j)] = dls
    return CheckResult(
        "symmetry",
        not hodge_deltas and not serre_deltas,
        {"hodge_deltas": hodge_deltas, "serre_deltas": serre_deltas, "N": N},
    )


def mazur_ogus_check(X: FormalObject, cfg=DEFAULT_CONFIG) -> CheckResult:
    h = hodge_numbers(X, cfg)
    tot = totalize(X, cfg.m, cfg)
    degs = sorted({i + j for (i, j) in h} | set(tot))
    mismatches = {}
    for nn in degs:
        hsum = sum(v for (i, j), v in h.items() if i + j == nn)
        b = tot.get(nn, {}).get("betti", 0)
        if hsum != b:
            mismatches[nn] = {"h_sum": hsum, "betti": b}
    torsion_free = all(not data["torsion"] for data in tot.values())
    return CheckResult(
        "mazur-ogus",
        not mismatches and torsion_free,
        {"mismatches": mismatches, "torsion_free": torsion_free},
    )
