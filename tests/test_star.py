"""The star product: unit law, closed form, presentation oracle
agreement, swap symmetry, mod-p compatibility, bands, derived star."""

import numpy as np
import pytest

from raynaud.blocks import make_block, truncate
from raynaud.homs import find_isomorphism
from raynaud import linalg
from raynaud.linalg import Pres, ZMod, minimal_gens, quotient_by
from raynaud.rmod import ModelTower, Unstable, check_relations, condense_level, sub_level
from raynaud.star import (
    ClosedFormInapplicable,
    StarModel,
    derived_star,
    star_frobenius_bijective,
    star_presentation,
    star_with_R,
)

P = 2
UNIT_PAIRS = ["UnitW", "ResidueK", "DAlphaP"]


def blocks(p=P):
    return {
        "W": make_block("UnitW", p),
        "k": make_block("ResidueK", p),
        "D": make_block("DAlphaP", p),
        "U0": make_block("Domino", p, t=0),
        "U1": make_block("Domino", p, t=1),
        "Um1": make_block("Domino", p, t=-1),
        "E": make_block("Dieudonne", p, i=1, j=1),
        "E13": make_block("Dieudonne", p, i=2, j=1),
    }


def exps_of(tower, m, n):
    L = tower.level(m, n)
    return {g: L.piece(g).pres.min_exps() for g in L.gradings() if L.piece(g).pres.min_exps()}


@pytest.mark.parametrize("name", ["W", "k", "D", "U0", "Um1", "E", "E13"])
def test_unit_law(name):
    b = blocks()[name]
    w = blocks()["W"]
    tower, _ = star_presentation(b, w, 3, 8)
    assert exps_of(tower, 2, 6) == exps_of(b.tower, 2, 6)
    phi = find_isomorphism(tower, b.tower, 2, 4)
    assert phi is not None, f"{name} * W is not isomorphic to {name}"


def test_star_output_satisfies_relations():
    b = blocks()
    tower, _ = star_presentation(b["U0"], b["W"], 2, 6)
    assert check_relations(tower, 2, 5).ok()
    tower2, _ = star_presentation(b["E"], b["E"], 2, 6)
    assert check_relations(tower2, 2, 5).ok()


# the pairs of the star_oracle benchmark workload, and one at p = 3
STAR_ORACLE_PAIRS = [
    (2, ("Domino", {"t": -1}), ("UnitW", {})),
    (2, ("Domino", {"t": 0}), ("ResidueK", {})),
    (2, ("Dieudonne", {"i": 1, "j": 1}), ("ResidueK", {})),
    (3, ("Domino", {"t": -1}), ("UnitW", {})),
]


def _star_base_level(p, a, b, m=3, n=8):
    """The level `star_presentation(a, b, m, n)` condenses, built fresh
    (no presentation's normal form cached yet)."""
    M, N = make_block(a[0], p, **a[1]), make_block(b[0], p, **b[1])
    model = StarModel(M, N, m, n + 3)
    return ModelTower(model.model, p, depth_margin=1).level(m, n + 2)


@pytest.mark.parametrize(
    "p, a, b", STAR_ORACLE_PAIRS, ids=["2-Um1xW", "2-U0xk", "2-Exk", "3-Um1xW"]
)
def test_condense_level_agrees_with_the_solved_route(p, a, b):
    """`condense_level` reads each grading's generators and coordinates
    off its own normal form.  The oracle is the general route kept for
    sub-objects: present the span of the identity (`minimal_gens`) and
    solve for the operators on it (`sub_level`)."""
    base = _star_base_level(p, a, b)
    R = base.R
    oracle = sub_level(
        base,
        {g: minimal_gens(R.eye(base.piece(g).ngens), base.piece(g).pres) for g in base.gradings()},
    )
    got = ModelTower(condense_level(base), p, depth_margin=1)
    want = ModelTower(oracle, p, depth_margin=1)
    for m, n in [(3, 8), (2, 6), (1, 4)]:
        assert exps_of(got, m, n) == exps_of(want, m, n), (m, n)
    assert check_relations(got, 2, 5).ok()


def test_condense_level_runs_one_snf_per_nonempty_grading(monkeypatch):
    """One SNF per grading gives its normal form and the inverse of its
    transform together; no span is presented and nothing is solved."""
    base = _star_base_level(*STAR_ORACLE_PAIRS[0])
    calls = []
    snf = linalg.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return snf(*args, **kwargs)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    condensed = condense_level(base)
    nonempty = [g for g in base.gradings() if base.piece(g).ngens]
    assert nonempty and len(calls) == len(nonempty)
    assert condensed.gradings() == base.gradings()


def test_closed_form_requires_bijective_frobenius():
    b = blocks()
    with pytest.raises(ClosedFormInapplicable):
        star_frobenius_bijective(b["W"], b["D"])
    with pytest.raises(ClosedFormInapplicable):
        star_frobenius_bijective(b["E"], b["U0"])


def test_closed_form_e_times_k_matches_spec():
    b = blocks()
    cf = star_frobenius_bijective(b["E"], b["k"])
    L = cf.level(1, 6)
    assert L.piece(0).pres.min_exps() == [1, 1]
    # F and V act by the nilpotent shift mod p
    F = L.F_lift(0) % 2
    assert np.array_equal(F, np.array([[0, 0], [1, 0]]))
    V = L.V(0) % 2
    assert np.array_equal(V, np.array([[0, 0], [1, 0]]))


def test_closed_form_k_tensor_k():
    b = blocks()
    cf = star_frobenius_bijective(b["k"], b["k"])
    assert exps_of(cf, 2, 5) == {0: [1]}


@pytest.mark.parametrize("mname", ["W", "k", "D", "U0", "Um1", "E"])
@pytest.mark.parametrize("nname", ["W", "k"])
def test_oracle_equivalence_presentation_vs_closed_form(mname, nname):
    """Wherever F is bijective on the second factor the two routes agree
    exactly (same normal forms, explicit isomorphism of truncations)."""
    b = blocks()
    M, N = b[mname], b[nname]
    pres, _ = star_presentation(M, N, 3, 8)
    cf = star_frobenius_bijective(M, N)
    assert exps_of(pres, 3, 8) == exps_of(cf, 3, 8), f"{mname} * {nname}"
    assert exps_of(pres, 2, 5) == exps_of(cf, 2, 5)
    phi = find_isomorphism(pres, cf, 2, 4)
    assert phi is not None, f"no isomorphism for {mname} * {nname}"


def test_swap_symmetry():
    b = blocks()
    for mname, nname in [("k", "E"), ("D", "W"), ("U0", "k")]:
        ab, _ = star_presentation(b[mname], b[nname], 2, 6)
        ba, _ = star_presentation(b[nname], b[mname], 2, 6)
        assert exps_of(ab, 2, 5) == exps_of(ba, 2, 5)
        phi = find_isomorphism(ab, ba, 2, 4)
        assert phi is not None, f"swap fails for {mname} * {nname}"


def test_mod_p_kunneth_compatibility():
    """R_1 tensor (M * N) has the dimensions of the tensor product of
    the mod-p fibers: dim M/(VM + dVM') * dim N/(...)."""
    b = blocks()
    for mname, nname in [("U0", "W"), ("E", "k"), ("D", "W")]:
        M, N = b[mname], b[nname]
        tower, _ = star_presentation(M, N, 2, 7)

        def fiber_dim(t):
            L = t.level(2, 6) if hasattr(t, "level") else t
            total = 0
            from raynaud.rmod import fil_gens

            fil = fil_gens(L, 1)
            for g in L.gradings():
                total += quotient_by(L.piece(g).pres, fil[g]).kdim()
            return total

        got = fiber_dim(tower)
        want = fiber_dim(M.tower) * fiber_dim(N.tower)
        assert got == want, f"{mname} * {nname}: {got} != {want}"


def test_star_with_r_bands():
    d = make_block("DAlphaP", P)
    sw = star_with_R(d, 2, 6)
    assert sw["bands"] == {"V": 5, "dV": 5, "Phi": 6, "Phid": 6}
    L = sw["level"]
    # one copy of the one-dimensional module per band slot
    assert len(L.piece(0).pres.min_exps()) == 11
    assert len(L.piece(1).pres.min_exps()) == 11
    # the unit case reproduces the ring's own truncation: W-copies per slot
    w = make_block("UnitW", P)
    sww = star_with_R(w, 2, 6)
    Lw = sww["level"]
    assert len(Lw.piece(0).pres.min_exps()) == 11
    assert len(Lw.piece(1).pres.min_exps()) == 11
    assert all(e == 2 for e in Lw.piece(0).pres.min_exps())


def test_derived_star_key_computation():
    e = make_block("Dieudonne", P, i=1, j=1)
    d = make_block("DAlphaP", P)
    res = derived_star(e, d, 2, 6)
    assert res["H-1"]["identified"] == "U_-1"
    assert res["H0"]["identified"] == "U_1"


def test_derived_star_factors_no_relation_array_twice(monkeypatch):
    # fresh blocks, so no level is cached from an earlier test; a
    # presentation read for its exponents and then for its basis is
    # factored once
    from raynaud.blocks import _make_block

    seen = []
    snf = linalg.smith_normal_form

    def counted(A, *args, **kwargs):
        seen.append(A)
        return snf(A, *args, **kwargs)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    e, d = _make_block("Dieudonne", P, i=1, j=1), _make_block("DAlphaP", P)
    res = derived_star(e, d, 2, 6)
    assert res["H-1"]["identified"] == "U_-1" and res["H0"]["identified"] == "U_1"
    assert seen and not [A for i, A in enumerate(seen) if any(A is B for B in seen[:i])]


def test_derived_star_kernel_bands_match_displayed_decomposition():
    """Grading 0 of the kernel is the V-band; grading 1 is the dV-band
    plus the bottom F^0 d slot."""
    from raynaud.star import BandModel, band_alpha
    from raynaud.linalg import kernel_into

    d = make_block("DAlphaP", P)
    src = BandModel(d, 2, 6, 5)
    dst, mats = band_alpha((1, 1), src)
    Ls, Ld = src.level, dst.level
    for g, expected_kinds in [(0, {("V",)}), (1, {("dV",), ("Phid", 0)})]:
        K = kernel_into(mats[g], Ls.piece(g).pres, Ld.piece(g).pres)
        labs = Ls.piece(g).labels
        pres = Ls.piece(g).pres
        kinds = set()
        for c in range(K.shape[1]):
            if pres.element_is_zero(K[:, c]):
                continue
            for idx in np.nonzero(K[:, c] % P)[0]:
                kind, a, gm, ii = labs[idx]
                kinds.add((kind,) if kind != "Phid" else ("Phid", a))
        assert kinds == expected_kinds


@pytest.mark.parametrize("p, t", [(3, 0), (3, -1), (5, 1)])
def test_band_operators_satisfy_ring_relations(p, t):
    """dd = 0, Vd = p dV, FdV = d and FV = VF = p on the band model of a
    domino, where d is nonzero, on the labels a smaller band model has
    (the operators stay inside the truncation ranges there)."""
    from raynaud.star import BandModel, _band_select

    U = make_block("Domino", p, t=t)
    big, small = BandModel(U, 2, 8, 7), BandModel(U, 2, 4, 3)
    V, d, F = big.ops()
    for g in small.sizes:
        S = _band_select(small, big, g)
        checks = [(g, F[g] @ V[g] @ S - p * S), (g, V[g] @ F[g] @ S - p * S)]
        if g + 1 in big.sizes:
            checks.append((g + 1, V[g + 1] @ d[g] @ S - p * d[g] @ V[g] @ S))
            checks.append((g + 1, F[g + 1] @ d[g] @ V[g] @ S - d[g] @ S))
        if g + 2 in big.sizes:
            checks.append((g + 2, d[g + 1] @ d[g] @ S))
        for h, A in checks:
            assert big.level.piece(h).pres.element_is_zero(A % big.R.q), (g, h)


def test_derived_star_with_unit():
    e = make_block("Dieudonne", P, i=1, j=1)
    w = make_block("UnitW", P)
    res = derived_star(e, w, 2, 6)
    assert res["H-1"]["identified"] == "0"
    assert res["H0"]["identified"] == "E"


@pytest.mark.parametrize(
    "second,m,n,expected",
    [
        ("DAlphaP", 2, 6, {"H-1": "U_-1", "H0": "U_1"}),
        ("DAlphaP", 3, 8, {"H-1": "U_-1", "H0": "U_1"}),
        ("UnitW", 2, 6, {"H-1": "0", "H0": "E"}),
        ("UnitW", 3, 8, {"H-1": "0", "H0": "E"}),
        ("ResidueK", 2, 6, {"H-1": "0", "H0": None}),
    ],
)
def test_derived_star_identifications_and_offsets(second, m, n, expected):
    # an identification is made at the requested level itself, so no
    # entry carries a depth offset
    e = make_block("Dieudonne", P, i=1, j=1)
    res = derived_star(e, make_block(second, P), m, n)
    assert {w: res[w]["identified"] for w in ("H-1", "H0")} == expected
    assert all("offset" not in res[w] for w in ("H-1", "H0"))


def test_derived_star_at_p7_above_the_int64_range():
    # at p = 7, (m, n) = (6, 12) the coefficient p^t of d(F^t * x) in the
    # band model passes 2^63 before it is reduced mod 7^6
    e = make_block("Dieudonne", 7, i=1, j=1)
    res = derived_star(e, make_block("DAlphaP", 7), 6, 12)
    assert [res[w]["status"] for w in ("H-1", "H0")] == ["identified", "identified"]
    assert (res["H-1"]["identified"], res["H0"]["identified"]) == ("U_-1", "U_1")


def test_derived_star_records_an_exhausted_search(monkeypatch):
    import raynaud.homs

    monkeypatch.setattr(raynaud.homs, "is_isomorphism_at", lambda *args: False)
    e = make_block("Dieudonne", P, i=1, j=1)
    res = derived_star(e, make_block("UnitW", P), 2, 6)
    assert res["H-1"]["status"] == "identified"  # the zero test needs no search
    assert res["H0"]["status"] == "search exhausted"
    assert res["H0"]["identified"] is None


def test_derived_star_requires_height_block():
    with pytest.raises(ValueError):
        derived_star(make_block("UnitW", P), make_block("DAlphaP", P), 2, 6)


def test_derived_star_with_a_domino_second_factor_is_a_known_limit():
    # the F-band kernel loop does not settle on U_0: over the bands
    # f0..f0+5 its kernel gains one class per band in gradings 1 and 2
    e = make_block("Dieudonne", P, i=1, j=1)
    with pytest.raises(Unstable) as info:
        derived_star(e, make_block("Domino", P, t=0), 2, 6)
    assert info.value.what == "derived star kernel in the F-band direction"
    assert info.value.steps == 6
    assert [band.f_depth for _, band in info.value.last] == [8, 9]


def test_derived_star_unidentified_returns_raw():
    e = make_block("Dieudonne", P, i=1, j=1)
    k = make_block("ResidueK", P)
    res = derived_star(e, k, 2, 6)
    assert res["H0"]["status"] in ("identified", "unidentified")
    assert res["H0"]["exps"]  # raw presentation always present


def test_mod_p_kunneth_e_times_e():
    # the mod-p fiber of E is E/VE = k (one-dimensional: V has unit entries),
    # so the fiber of E * E is 1 x 1
    b = blocks()
    tower, _ = star_presentation(b["E"], b["E"], 2, 7)
    from raynaud.rmod import fil_gens

    L = tower.level(2, 6)
    fil = fil_gens(L, 1)
    total = sum(quotient_by(L.piece(g).pres, fil[g]).kdim() for g in L.gradings())
    assert total == 1


def test_swap_symmetry_more_pairs():
    b = blocks()
    for mname, nname in [("D", "D"), ("k", "D"), ("E", "D")]:
        ab, _ = star_presentation(b[mname], b[nname], 2, 5)
        ba, _ = star_presentation(b[nname], b[mname], 2, 5)
        assert exps_of(ab, 2, 4) == exps_of(ba, 2, 4), f"{mname}*{nname}"
        phi = find_isomorphism(ab, ba, 2, 4)
        assert phi is not None, f"swap fails for {mname} * {nname}"


def test_derived_star_identification_explicit_at_full_level():
    # beyond fingerprints: explicit invertible intertwiners at the working level
    e = make_block("Dieudonne", P, i=1, j=1)
    d = make_block("DAlphaP", P)
    res = derived_star(e, d, 2, 8)
    for which, name, t in [("H-1", "U_-1", -1), ("H0", "U_1", 1)]:
        assert res[which]["identified"] == name
        model = res[which]["model"]
        phi = find_isomorphism(make_block("Domino", P, t=t).tower, model, 2, 8)
        assert phi is not None, f"no explicit iso for {which} at (2, 8)"


class _PerTermStar:
    """The per-term route `StarModel` was built by before its Kronecker
    blocks, kept here as its oracle.  A term (kind, s, gm, x, gn, y, coeff)
    stands for coeff * kind^s(x * y) with x, y coordinate vectors of M^gm
    and N^gn, expanded bilinearly over the symbols ("g", s, gm, a, gn, b)
    = V^s(x_a * y_b) and ("h", s, gm, a, gn, b) = dV^s(x_a * y_b), one
    symbol at a time."""

    def __init__(self, Mb, Nb, m, S):
        self.Mb, self.S = Mb, S
        R = self.R = ZMod(Mb.p, m)
        self.LM, self.LN = Mb.tower.level(m, S), Nb.tower.level(m, S)
        self.index, self.labels = {}, {}
        for gm in Mb.tower.gradings():
            for gn in Nb.tower.gradings():
                for a in range(self.LM.piece(gm).ngens):
                    for b in range(self.LN.piece(gn).ngens):
                        for s in range(S):
                            self._add(("g", s, gm, a, gn, b), gm + gn)
                        for s in range(1, S):
                            self._add(("h", s, gm, a, gn, b), gm + gn + 1)
        self.sizes = {g: len(v) for g, v in self.labels.items()}
        cols = {g: [] for g in self.labels}
        for g, terms in self._relations(Mb, Nb):
            col = self._coeffs(*terms)
            if col:
                cols[g].append(col)
        self.rels = {}
        for g, labs in self.labels.items():
            rels = R.zeros(len(labs), len(cols[g]))
            for c, col in enumerate(cols[g]):
                rels[list(col), c] = list(col.values())
            self.rels[g] = Pres(R, len(labs), rels).rels

    def _add(self, key, g):
        self.index[key] = (g, len(self.labels.setdefault(g, [])))
        self.labels[g].append(key)

    def _coeffs(self, *terms):
        """A sum of terms as a {position: value} dict of its nonzero
        coordinates; positions are those of the terms' own grading."""
        q = self.R.q
        acc = {}
        for kind, s, gm, x, gn, y, coeff in terms:
            ys = [(b, yv) for b, yv in enumerate(y.tolist()) if yv]
            for a, xv in enumerate(x.tolist()):
                if not xv:
                    continue
                for b, yv in ys:
                    c = xv * yv * coeff % q
                    if c:
                        pos = self.index[(kind, s, gm, a, gn, b)][1]
                        acc[pos] = (acc.get(pos, 0) + c) % q
        return {pos: v for pos, v in acc.items() if v}

    def vec(self, g, *terms):
        """The coordinate vector at grading g of a sum of terms."""
        vec = np.zeros(self.sizes.get(g, 0), dtype=np.int64)
        col = self._coeffs(*terms)
        vec[list(col)] = list(col.values())
        return vec

    def _d_terms(self, s, gm, x, gn, y, coeff):
        if s >= 1:
            return [("h", s, gm, x, gn, y, coeff)]
        return [
            ("g", 0, gm + 1, self.R.matmul(self.LM.d(gm), x), gn, y, coeff),
            ("g", 0, gm, x, gn + 1, self.R.matmul(self.LN.d(gn), y), coeff * (-1) ** gm),
        ]

    def _relations(self, Mb, Nb):
        LM, LN, S = self.LM, self.LN, self.S
        for gm in Mb.tower.gradings():
            IM = np.eye(LM.piece(gm).ngens, dtype=np.int64)
            for gn in Nb.tower.gradings():
                IN = np.eye(LN.piece(gn).ngens, dtype=np.int64)
                g = gm + gn
                for x, Vx, Fx in zip(IM.T, LM.V(gm).T, LM.F_lift(gm).T):
                    for y, Vy, Fy in zip(IN.T, LN.V(gn).T, LN.F_lift(gn).T):
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

    def ops(self):
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
                F[g][:, pos] = self.vec(g, ("g", 0, gm, Fx, gn, Fy, 1))
            else:  # F(dV(x * y)) = d(x * y), the Leibniz expansion
                F[g][:, pos] = self.vec(g, *self._d_terms(0, gm, x, gn, y, 1))
            if kind == "g":
                d[g][:, pos] = self.vec(g + 1, *self._d_terms(s, gm, x, gn, y, 1))
        return V, d, F

    def second_factor_map(self, fN):
        out = {g: self.R.zeros(k, k) for g, k in self.sizes.items()}
        for (kind, s, gm, a, gn, b), (g, pos) in self.index.items():
            fcol = fN[gn][:, b]
            for bb in np.nonzero(fcol)[0]:
                _, pp = self.index[(kind, s, gm, a, gn, int(bb))]
                out[g][pp, pos] = (out[g][pp, pos] + int(fcol[bb])) % self.R.q
        return out


def _dense_vec(oracle, g, *terms):
    """The reference expansion: a dense vector filled term by term over
    the nonzeros of the two factor vectors."""
    q = oracle.R.q
    vec = np.zeros(oracle.sizes.get(g, 0), dtype=np.int64)
    for kind, s, gm, x, gn, y, coeff in terms:
        for a in x.nonzero()[0]:
            for b in y.nonzero()[0]:
                c = (int(x[a]) * int(y[b]) * coeff) % q
                if c:
                    pos = oracle.index[(kind, s, gm, int(a), gn, int(b))][1]
                    vec[pos] = (vec[pos] + c) % q
    return vec


# (p, first factor, second factor, m, S); U_0 * U_-1 has d != 0 on both factors
STAR_MODEL_CASES = {
    "Um1-W": (2, "Um1", "W", 3, 11),
    "U0-k": (2, "U0", "k", 3, 11),
    "E-k": (2, "E", "k", 3, 11),
    "3-Um1-W": (3, "Um1", "W", 3, 11),
    "E-E": (2, "E", "E", 3, 11),
    "U0-Um1": (2, "U0", "Um1", 2, 5),
    "3-U0-Um1": (3, "U0", "Um1", 2, 4),
}


@pytest.mark.parametrize("case", STAR_MODEL_CASES.values(), ids=STAR_MODEL_CASES.keys())
def test_star_model_matches_dense_relation_route(case):
    """`StarModel`'s Kronecker blocks give the labels, relations and
    operators of the per-term route byte for byte."""
    p, mname, nname, m, S = case
    b = blocks(p)
    model = StarModel(b[mname], b[nname], m, S)
    oracle = _PerTermStar(b[mname], b[nname], m, S)
    assert model.labels == oracle.labels
    L = model.model
    assert L.gradings() == sorted(oracle.labels)
    for g, (V, d, F) in zip(oracle.labels, zip(*(t.values() for t in oracle.ops()))):
        got, ref = L.piece(g).pres.rels, oracle.rels[g]
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), g
        for op, want in ((L.V(g), V), (L.d(g), d), (L.F_lift(g), F)):
            assert op.shape == want.shape and op.tobytes() == want.tobytes(), g


@pytest.mark.parametrize("case", ["Um1-W", "E-E", "U0-Um1", "3-U0-Um1"])
def test_second_factor_map_matches_the_per_symbol_route(case):
    # entries outside [0, q), negative ones included, must come out reduced
    p, mname, nname, m, S = STAR_MODEL_CASES[case]
    b = blocks(p)
    model = StarModel(b[mname], b[nname], m, S)
    oracle = _PerTermStar(b[mname], b[nname], m, S)
    rng = np.random.default_rng(0)
    fN = {}
    for gn in b[nname].tower.gradings():
        k = model.LN.piece(gn).ngens
        fN[gn] = rng.integers(-2 * model.R.q, 2 * model.R.q, size=(k, k)) * (rng.random((k, k)) < 0.4)
    got, want = model.second_factor_map(fN), oracle.second_factor_map(fN)
    assert got.keys() == want.keys()
    for g in want:
        assert got[g].shape == want[g].shape and got[g].tobytes() == want[g].tobytes(), g


def test_star_model_sums_cancel_entry_by_entry():
    """A sum whose terms cancel in one coordinate and add up in another:
    the per-term oracle's expansion keeps exactly the nonzero entries of
    the reference vector (a dropped or double-counted entry differs), and
    a sum that cancels completely is the empty dict."""
    b = blocks()
    oracle = _PerTermStar(b["U0"], b["k"], 3, 11)
    e0, e1, e2 = np.eye(oracle.LM.piece(0).ngens, dtype=np.int64)[:3]
    y = np.eye(oracle.LN.piece(0).ngens, dtype=np.int64)[0]
    # (e0 + e1) * y - e1 * y + 3 (e2 * y) = e0 * y + 3 (e2 * y)
    terms = [("g", 1, 0, e0 + e1, 0, y, 1), ("g", 1, 0, e1, 0, y, -1), ("g", 1, 0, e2, 0, y, 3)]
    ref = _dense_vec(oracle, 0, *terms)
    col = oracle._coeffs(*terms)
    assert sorted(col.values()) == [1, 3]
    assert col == {int(i): int(ref[i]) for i in ref.nonzero()[0]}
    assert oracle.vec(0, *terms).tobytes() == ref.tobytes()
    cancel = [("g", 1, 0, e0 + e1, 0, y, 1), ("g", 1, 0, e0 + e1, 0, y, oracle.R.q - 1)]
    assert oracle._coeffs(*cancel) == {} and not _dense_vec(oracle, 0, *cancel).any()
