"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with -s to see them on success).

Criteria, all exact:

 1. counterexample grid from the pipeline, p in {2,3,5}, m=8, n=16, <10s each
 2. E2 cells of the spectral sequence with the degree-3 extension
 3. derived star identifications over the truncation grid
 4. Crew's formula on >= 50 random formal objects
 5. domino additivity over the realized extension sequence
 6. Ekedahl inequality on the projective, Gm-ladder, counterexample fixtures
 7. symmetry suite: P^4 fully symmetric; counterexample symmetric to degree 2
    and asymmetric by exactly 1 in degree 3
 8. Mazur-Ogus count and Newton-Hodge polygon domination on the fixtures
 9. star oracle equivalence and unit law at (m, n) = (3, 8)
10. Witt arithmetic: exhaustive ring isomorphism and operator identities, <5s
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from raynaud.balphap import (
    PipelineConfig,
    counterexample_object,
    counterexample_report,
    e2_rows01,
    resolve_extension,
    row2_e2,
)
from raynaud.blocks import make_block
from raynaud.formal import FormalObject, Summand
from raynaud.homs import cone_or_extension, find_isomorphism
from raynaud.invariants import (
    InvariantConfig,
    crew_check,
    domino_number_tower,
    ekedahl_check,
    hodge_numbers,
    hodge_witt_numbers,
    mazur_ogus_check,
    newton_hodge_polygon,
    symmetry_check,
    totalize,
)
from raynaud.star import derived_star, star_frobenius_bijective, star_presentation
from raynaud.witt import (
    WittRing,
    frobenius,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
)

ICFG = InvariantConfig(3, 8, 3)

EXPECTED_GRID = {"0,0": 1, "0,3": 1, "1,1": 1, "1,2": -2, "2,1": 1}


def _line(num, ok, text):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def pn_object(p, n):
    return FormalObject.of_blocks(p, 1, *[("UnitW", -i, -i) for i in range(n + 1)])


def test_criterion_01_counterexample_grid():
    worst = 0.0
    for p in (2, 3, 5):
        t0 = time.time()
        rep = counterexample_report(PipelineConfig(p=p, m=8, n=16))
        el = time.time() - t0
        worst = max(worst, el)
        assert rep["hW"] == EXPECTED_GRID, f"wrong grid at p={p}: {rep['hW']}"
        assert rep["all_checks_pass"], f"embedded checks failed at p={p}"
        assert el < 10.0, f"report took {el:.1f}s at p={p}"
    _line(1, True, f"grid exact for p in (2,3,5) at m=8, n=16; worst {worst:.1f}s < 10s")


def test_criterion_02_e2_cells():
    cfg = PipelineConfig(p=2, m=4, n=8)
    cells = e2_rows01(cfg)
    ses = row2_e2(cfg)
    ext = resolve_extension(cfg)
    ok = (
        cells["row0"]["E2_00"] == "W"
        and cells["E2_11"] == "D(alpha_p)"
        and cells["E2_01"] == "0"
        and cells["E2_21"] == "0"
        and ses["E2_02"] == "0"
        and ses["sub"] == "U_-1"
        and ses["quot"] == "k(-1)[1]"
        and [s.block.label() for s in ext["H3"]] == ["U_0"]
    )
    _line(2, ok, "E2^{0,0}=W, E2^{1,1}=D(alpha_p), E2^{0,2}=0, E2^{1,2}=U_0 with its SES")


@pytest.mark.parametrize("m", [2, 3])
def test_criterion_03_derived_star_grid(m):
    e = make_block("Dieudonne", 2, i=1, j=1)
    d = make_block("DAlphaP", 2)
    for n in range(4, 13):
        res = derived_star(e, d, m, n)
        assert res["H-1"]["identified"] == "U_-1", f"H^-1 at (m,n)=({m},{n})"
        assert res["H0"]["identified"] == "U_1", f"H^0 at (m,n)=({m},{n})"
    _line(3, True, f"derived star = (U_-1, U_1) at every (m={m}, 4 <= n <= 12)")


def test_criterion_04_crew_random_suite():
    kinds = [
        ("UnitW", {}),
        ("ResidueK", {}),
        ("DAlphaP", {}),
        ("Domino", {"t": -2}),
        ("Domino", {"t": -1}),
        ("Domino", {"t": 0}),
        ("Domino", {"t": 1}),
        ("Domino", {"t": 2}),
        ("Dieudonne", {"i": 1, "j": 1}),
        ("Dieudonne", {"i": 2, "j": 1}),
        ("Dieudonne", {"i": 1, "j": 2}),
    ]
    rng = np.random.default_rng(2024)
    checked = 0
    for count in range(54):
        p = (2, 3, 5)[count % 3]
        summands = []
        for _ in range(int(rng.integers(1, 5))):
            kind, params = kinds[int(rng.integers(len(kinds)))]
            i, j = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            summands.append(Summand(make_block(kind, p, **params), i, j))
        X = FormalObject(p, 1, summands)
        table = hodge_witt_numbers(X, ICFG)
        cols = sorted({i for (i, _) in set(table.h) | set(table.hW)})
        for i in cols:
            c = crew_check(X, i, ICFG)
            assert c.passed, f"Crew fails for {X} at i={i}: {c.details}"
        checked += 1
    _line(4, checked >= 50, f"Crew's formula exact on {checked} random formal objects")


def test_criterion_05_domino_additivity():
    cfg = InvariantConfig(2, 6, 3)
    res = cone_or_extension(2, 1, 3, 6)
    cone_tower = res["cone_tower"]
    um1 = make_block("Domino", 2, t=-1).tower
    ok = True
    for i in (-1, 0, 1, 2):
        t_mid = domino_number_tower(um1, i, cfg) if i in (0, 1) else 0
        t_quot = domino_number_tower(cone_tower, i, cfg) if i in (0, 1) else 0
        t_sub = 0  # k(-1) is heart-only
        ok = ok and (t_mid == t_sub + t_quot)
    _line(5, ok, "T^i additive over 0 -> k(-1) -> U_-1 -> U_0 -> 0 for all i")


def test_criterion_06_ekedahl():
    fixtures = []
    for n in range(1, 6):
        fixtures.append((f"P^{n}", pn_object(2, n)))
    fixtures.append(("Gm-ladder", pn_object(3, 4)))
    X, _, _ = counterexample_object(PipelineConfig(p=2, m=4, n=8))
    fixtures.append(("counterexample", X))
    for name, obj in fixtures:
        res = ekedahl_check(obj, ICFG)
        assert res.passed, f"Ekedahl fails on {name}: {res.details['violations']}"
    # equality at (0,3) and strictness at (1,2) on the counterexample
    res = ekedahl_check(X, ICFG)
    assert (0, 3) in res.details["equalities"]
    assert (1, 2) in res.details["strict"]
    _line(6, True, "h_W <= h cellwise on P^n (n<=5), Gm-ladder, counterexample")


def test_criterion_07_symmetry():
    p4 = pn_object(2, 4)
    sym = symmetry_check(p4, 4, ICFG)
    assert sym.passed, sym.details
    X, _, _ = counterexample_object(PipelineConfig(p=2, m=4, n=8))
    sym_low = symmetry_check(X, 4, ICFG, max_total=2)
    assert not sym_low.details["hodge_deltas"], sym_low.details
    table = hodge_witt_numbers(X, ICFG)
    delta = table.hW.get((0, 3), 0) - table.hW.get((3, 0), 0)
    assert delta == 1, f"degree-3 asymmetry should be 1, got {delta}"
    _line(7, True, "P^4 fully symmetric; counterexample symmetric to degree 2, off by 1 at (0,3)")


def test_criterion_08_mazur_ogus_and_polygons():
    for p, n in [(2, 2), (2, 4), (3, 3), (5, 5)]:
        obj = pn_object(p, n)
        mo = mazur_ogus_check(obj, ICFG)
        assert mo.passed, f"Mazur-Ogus fails on P^{n} (p={p}): {mo.details}"
        for deg in range(0, 2 * n + 1):
            res = newton_hodge_polygon(obj, deg, ICFG)
            assert res["pass"], f"polygon fails on P^{n} degree {deg}"
    # the elliptic fixture has a genuinely strict polygon gap in degree 1
    e = make_block("Dieudonne", 2, i=1, j=1)
    ell = FormalObject.of_blocks(2, 1, ("UnitW", 0, 0), (e, 0, -1), ("UnitW", -1, -1))
    res = newton_hodge_polygon(ell, 1, ICFG)
    assert res["pass"] and res["newton"] == [(Fraction(1, 2), 2)]
    X, _, _ = counterexample_object(PipelineConfig(p=2, m=4, n=8))
    for deg in range(0, 4):
        res = newton_hodge_polygon(X, deg, ICFG)
        assert res["pass"], f"polygon fails on the counterexample, degree {deg}"
    _line(8, True, "sum h^{i,j} = b_n on P^n; Newton-Hodge below Newton with equal endpoints")


def test_criterion_09_star_oracle():
    p = 2
    blocks = {
        "W": make_block("UnitW", p),
        "k": make_block("ResidueK", p),
        "D": make_block("DAlphaP", p),
        "U-2": make_block("Domino", p, t=-2),
        "U-1": make_block("Domino", p, t=-1),
        "U0": make_block("Domino", p, t=0),
        "U1": make_block("Domino", p, t=1),
        "U2": make_block("Domino", p, t=2),
        "E": make_block("Dieudonne", p, i=1, j=1),
        "E13": make_block("Dieudonne", p, i=2, j=1),
        "E23": make_block("Dieudonne", p, i=1, j=2),
    }

    def exps_of(tower, m, n):
        L = tower.level(m, n)
        return {
            g: L.piece(g).pres.min_exps()
            for g in L.gradings()
            if L.piece(g).pres.min_exps()
        }

    count = 0
    for mname in blocks:
        M = blocks[mname]
        # unit law at (3, 8): presentation equality after normalization
        pres, _ = star_presentation(M, blocks["W"], 3, 8)
        assert exps_of(pres, 3, 8) == exps_of(M.tower, 3, 8), f"unit law for {mname}"
        count += 1
        for nname in ("W", "k"):
            N = blocks[nname]
            cf = star_frobenius_bijective(M, N)
            pr, _ = star_presentation(M, N, 3, 8)
            assert exps_of(pr, 3, 8) == exps_of(cf, 3, 8), f"{mname} * {nname}"
            count += 1
    _line(9, True, f"presentation = closed form = unit law on {count} pairs at (3, 8)")


def test_criterion_10_witt_arithmetic():
    t0 = time.time()
    for p in (2, 3):
        for m in (1, 2, 3):
            ring = WittRing(p, 1, m)
            table = [ring.zero()]
            for _ in range(p**m - 1):
                table.append(witt_add(table[-1], ring.one()))
            assert len({t.components for t in table}) == p**m
            for a in range(p**m):
                for b in range(p**m):
                    assert witt_add(table[a], table[b]) == table[(a + b) % p**m]
                    assert witt_mul(table[a], table[b]) == table[(a * b) % p**m]
    rng = np.random.default_rng(11)
    for p, r, m in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        ring = WittRing(p, r, m)
        p_elt = ring.from_int(p)
        for _ in range(500):
            x, y = ring.random(rng), ring.random(rng)
            assert frobenius(verschiebung(x)) == witt_mul(p_elt, x)
            assert frobenius(witt_add(x, y)) == witt_add(frobenius(x), frobenius(y))
            assert frobenius(witt_mul(x, y)) == witt_mul(frobenius(x), frobenius(y))
            a = teichmuller(ring.field.random(rng), m)
            assert witt_mul(verschiebung(x), a) == verschiebung(witt_mul(x, frobenius(a)))
    el = time.time() - t0
    _line(10, el < 5.0, f"exhaustive W_m(F_p) = Z/p^m and operator identities in {el:.1f}s < 5s")
