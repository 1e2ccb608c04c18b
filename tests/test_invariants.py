"""Hearts, dominoes, slopes, Hodge and Hodge-Witt tables, polygons,
totalization, and the checker suite on hand-verified fixtures.

Per-block Hodge tables were computed by hand from the three-term
resolution (kernels and cokernels of u_1, v_1 on the explicit bases)
and every block table is re-verified here against Crew's formula,
which ties the alternating h-sums to the alternating h_W-sums.
"""

from fractions import Fraction

import numpy as np
import pytest

from raynaud.blocks import make_block
from raynaud.formal import FormalObject
from raynaud.invariants import (
    InvariantConfig,
    _f_infty_b,
    coeur,
    crew_check,
    domino_number,
    ekedahl_check,
    hodge_numbers,
    hodge_witt_numbers,
    mazur_ogus_check,
    newton_hodge_polygon,
    newton_slopes,
    newton_slopes_from_charpoly,
    r1_tensor,
    rn_tensor_block,
    slope_numbers,
    symmetry_check,
    totalize,
)
from raynaud.linalg import ZMod
from raynaud.rmod import Unstable

CFG = InvariantConfig(3, 8, 3)


def P_n_object(p, n):
    return FormalObject.of_blocks(p, 1, *[("UnitW", -i, -i) for i in range(n + 1)])


BLOCK_HODGE = {
    ("UnitW", ()): {(0, 0): 1},
    ("ResidueK", ()): {(0, 0): 1, (0, -1): 1},
    ("DAlphaP", ()): {(0, 0): 1, (0, -1): 1, (1, -1): 1, (1, -2): 1},
    ("Domino", (("t", 0),)): {(0, 0): 1, (1, 0): 1, (1, -2): 1, (2, -2): 1},
    ("Domino", (("t", 1),)): {(0, 0): 1, (1, -2): 2, (2, -2): 1},
    ("Domino", (("t", -1),)): {(0, 0): 1, (1, 0): 2, (2, -2): 1},
    ("Domino", (("t", 2),)): {(0, 0): 1, (1, -1): 1, (1, -2): 3, (2, -2): 1},
    ("Domino", (("t", -2),)): {(0, 0): 1, (1, 0): 3, (1, -1): 1, (2, -2): 1},
    ("Dieudonne", (("i", 1), ("j", 1))): {(0, 0): 1, (1, -1): 1},
    ("Dieudonne", (("i", 2), ("j", 1))): {(0, 0): 2, (1, -1): 1},
    ("Dieudonne", (("i", 1), ("j", 2))): {(0, 0): 1, (1, -1): 2},
}


@pytest.mark.parametrize("key", sorted(BLOCK_HODGE, key=str))
def test_block_hodge_tables(key):
    kind, params = key
    b = make_block(kind, 2, **dict(params))
    X = FormalObject.of_blocks(2, 1, (b, 0, 0))
    assert hodge_numbers(X, CFG) == BLOCK_HODGE[key]


@pytest.mark.parametrize("key", sorted(BLOCK_HODGE, key=str))
def test_crew_on_every_block(key):
    kind, params = key
    b = make_block(kind, 2, **dict(params))
    X = FormalObject.of_blocks(2, 1, (b, 0, 0))
    for i in range(0, 3):
        assert crew_check(X, i, CFG), f"Crew fails for {b.label()} at i={i}"


def test_spec_crew_examples_u0():
    X = FormalObject.of_blocks(2, 1, (make_block("Domino", 2, t=0), 0, 0))
    c0 = crew_check(X, 0, CFG)
    assert c0.details["hW_sum"] == 1 and c0.details["h_sum"] == 1
    c1 = crew_check(X, 1, CFG)
    assert c1.details["hW_sum"] == 2 and c1.details["h_sum"] == 2
    d = FormalObject.of_blocks(2, 1, ("DAlphaP", 0, 0))
    cd = crew_check(d, 0, CFG)
    assert cd.details["hW_sum"] == 0 and cd.details["h_sum"] == 0


def test_domino_numbers():
    for t in (-2, -1, 0, 1, 2):
        b = make_block("Domino", 2, t=t)
        assert domino_number(b, 0, CFG) == 1
        assert domino_number(b, 1, CFG) == 0
    assert domino_number(make_block("Dieudonne", 2, i=1, j=1), 0, CFG) == 0
    assert domino_number(make_block("UnitW", 2), 0, CFG) == 0
    assert domino_number(make_block("ResidueK", 3), 0, CFG) == 0


def test_coeur_fixtures():
    # U_0: the heart vanishes in both gradings
    u0 = make_block("Domino", 2, t=0)
    assert coeur(u0, 0, CFG)["exps"] == []
    assert coeur(u0, 1, CFG)["exps"] == []
    # D(alpha_p): heart is k with F = V = 0
    d = make_block("DAlphaP", 2)
    c = coeur(d, 0, CFG)
    assert c["exps"] == [1]
    # E_{1/2}: the heart is the whole torsion-free module
    e = make_block("Dieudonne", 2, i=1, j=1)
    ce = coeur(e, 0, InvariantConfig(3, 8, 3))
    assert ce["free_rank"] == 2


@pytest.mark.parametrize(
    "kind,params", [("UnitW", {}), ("Domino", {"t": 0}), ("Dieudonne", {"i": 1, "j": 1})]
)
def test_f_infty_b_refuses_an_unstabilized_sum(kind, params):
    # acceptance needs two agreeing lengths at some s >= 2, out of reach
    # when the V-depth is n = 1
    tower = make_block(kind, 2, **params).tower
    for g in tower.gradings():
        with pytest.raises(Unstable, match=f"grading {g} .* s <= 1"):
            _f_infty_b(tower, g, 2, 1)


@pytest.mark.parametrize(
    "kind,params,expect",
    [
        ("UnitW", {}, [(Fraction(0), 1)]),
        ("Dieudonne", {"i": 1, "j": 1}, [(Fraction(1, 2), 2)]),
        ("Dieudonne", {"i": 2, "j": 1}, [(Fraction(1, 3), 3)]),
        ("Dieudonne", {"i": 1, "j": 2}, [(Fraction(2, 3), 3)]),
        ("Dieudonne", {"i": 3, "j": 1}, [(Fraction(1, 4), 4)]),
        ("DAlphaP", {}, []),
        ("ResidueK", {}, []),
        ("Domino", {"t": 0}, []),
    ],
)
def test_newton_slopes(kind, params, expect):
    b = make_block(kind, 2, **params)
    assert newton_slopes(b, 0, CFG) == expect


def test_newton_slopes_match_block_metadata():
    for kind, params in [
        ("UnitW", {}),
        ("Dieudonne", {"i": 1, "j": 1}),
        ("Dieudonne", {"i": 2, "j": 1}),
        ("Dieudonne", {"i": 1, "j": 2}),
    ]:
        b = make_block(kind, 3, **params)
        computed = dict(newton_slopes(b, 0, CFG))
        assert computed == b.slopes


@pytest.mark.parametrize(
    "coeffs,expect",
    [
        ([1, 0, 2], [Fraction(1, 2)] * 2),  # middle coefficient uncertified
        ([1, 1, 2], [Fraction(0), Fraction(1)]),
        ([1, 0, 0, 2], [Fraction(1, 3)] * 3),
    ],
)
def test_newton_slopes_from_charpoly(coeffs, expect):
    assert newton_slopes_from_charpoly(coeffs, ZMod(2, 3)) == expect


def test_newton_slopes_from_charpoly_refuses_uncertified_determinant():
    with pytest.raises(Unstable):
        newton_slopes_from_charpoly([1, 0, 8], ZMod(2, 3))


def test_rn_tensor_of_unit_is_wn():
    for N in (1, 2, 3, 4):
        tc = rn_tensor_block(make_block("UnitW", 2), N, CFG)
        assert dict(tc.entries) == {(0, 0): [N]}
    tc = rn_tensor_block(make_block("UnitW", 3), 5, CFG)
    assert dict(tc.entries) == {(0, 0): [5]}


def test_r1_tensor_dalphap_spec_example():
    X = FormalObject.of_blocks(2, 1, ("DAlphaP", 0, 0))
    tc = r1_tensor(X, CFG)
    assert {c: len(e) for c, e in tc.entries.items()} == {
        (1, -2): 1,
        (0, -1): 1,
        (1, -1): 1,
        (0, 0): 1,
    }


def test_slope_numbers_shift_rule():
    p = 2
    x = FormalObject.of_blocks(p, 1, ("UnitW", 0, 0))
    assert slope_numbers(x, CFG) == {(0, 0): Fraction(1)}
    shifted = FormalObject.of_blocks(p, 1, ("UnitW", -1, -1))
    assert slope_numbers(shifted, CFG) == {(1, 1): Fraction(1)}
    dap = FormalObject.of_blocks(p, 1, ("DAlphaP", 0, -2))
    assert slope_numbers(dap, CFG) == {}


def test_hodge_additivity_over_sums():
    p = 2
    x = FormalObject.of_blocks(p, 1, ("UnitW", 0, 0), ("UnitW", -1, -1))
    h = hodge_numbers(x, CFG)
    assert h == {(0, 0): 1, (1, 1): 1}


def test_u0_in_degree_zero_hodge_witt():
    X = FormalObject.of_blocks(2, 1, (make_block("Domino", 2, t=0), 0, 0))
    hw = hodge_witt_numbers(X, CFG).hW
    assert hw[(0, 0)] == 1
    assert hw[(1, -1)] == -2
    assert hw[(2, -2)] == 1


def test_pn_tables():
    for p in (2, 3):
        for n in (1, 2, 4):
            X = P_n_object(p, n)
            table = hodge_witt_numbers(X, CFG)
            assert table.h == {(i, i): 1 for i in range(n + 1)}
            assert {c: int(v) for c, v in table.hW.items()} == {
                (i, i): 1 for i in range(n + 1)
            }
            assert table.betti == {2 * i: 1 for i in range(n + 1)}
            assert mazur_ogus_check(X, CFG)
            assert symmetry_check(X, n, CFG)
            assert ekedahl_check(X, CFG)


def test_pn_newton_hodge_polygons():
    X = P_n_object(2, 3)
    for nn in range(0, 7):
        res = newton_hodge_polygon(X, nn, CFG)
        assert res["pass"]
        if nn % 2 == 0:
            assert res["newton"] == [(Fraction(nn, 2), 1)]
            assert res["newton_hodge"] == [(Fraction(nn // 2), 1)]


def test_supersingular_elliptic_fixture():
    # W + E_{1/2}[-1] + W(-1)[-2]: symmetric h_W with middle slope weights
    p = 2
    e = make_block("Dieudonne", p, i=1, j=1)
    X = FormalObject.of_blocks(p, 1, ("UnitW", 0, 0), (e, 0, -1), ("UnitW", -1, -1))
    table = hodge_witt_numbers(X, CFG)
    hw = {c: int(v) for c, v in table.hW.items()}
    assert hw == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert table.betti == {0: 1, 1: 2, 2: 1}
    assert symmetry_check(X, 1, CFG)
    assert mazur_ogus_check(X, CFG)
    res = newton_hodge_polygon(X, 1, CFG)
    assert res["pass"]
    assert res["newton"] == [(Fraction(1, 2), 2)]
    assert res["newton_hodge"] == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    # the polygon with slopes {0, 1} lies strictly below {1/2, 1/2} at x = 1
    assert not mazur_ogus_check(
        FormalObject.of_blocks(p, 1, ("DAlphaP", 0, -2))
    )  # torsion breaks Mazur-Ogus


def test_totalize_torsion():
    X = FormalObject.of_blocks(2, 1, ("DAlphaP", 0, -2))
    tot = totalize(X, 3, CFG)
    assert tot == {2: {"betti": 0, "torsion": [1]}}


def test_totalize_dominoes_are_invisible():
    # Tot(U_0) is exact: d is bijective from grading 0 to grading 1
    X = FormalObject.of_blocks(2, 1, (make_block("Domino", 2, t=0), 0, 0))
    assert totalize(X, 3, CFG) == {}
    X1 = FormalObject.of_blocks(2, 1, (make_block("Domino", 2, t=1), 0, 0))
    assert totalize(X1, 3, CFG) == {0: {"betti": 0, "torsion": [1]}}


def test_invariant_table_serialization():
    X = P_n_object(2, 2)
    table = hodge_witt_numbers(X, CFG)
    js = table.to_json()
    assert '"hW"' in js and '"betti"' in js
    md = table.to_markdown("hW")
    assert "j\\i" in md


def test_stability_across_working_levels():
    # every reported number is unchanged when (m, n) grow
    b = make_block("Domino", 2, t=1)
    X = FormalObject.of_blocks(2, 1, (b, 0, 0))
    t1 = hodge_witt_numbers(X, InvariantConfig(2, 7, 3))
    t2 = hodge_witt_numbers(X, InvariantConfig(3, 9, 3))
    assert t1.hW == t2.hW and t1.h == t2.h and t1.T == t2.T


def test_block_metadata_agrees_with_computed_invariants():
    # the declared slope multisets and domino counts match the honest
    # computations on truncations at the declared stabilization level
    for kind, params in [
        ("UnitW", {}),
        ("ResidueK", {}),
        ("DAlphaP", {}),
        ("Domino", {"t": 0}),
        ("Domino", {"t": -1}),
        ("Dieudonne", {"i": 1, "j": 1}),
        ("Dieudonne", {"i": 2, "j": 1}),
    ]:
        b = make_block(kind, 2, **params)
        assert dict(newton_slopes(b, 0, CFG)) == b.slopes, b.label()
        for g, count in (b.dominoes or {}).items():
            assert domino_number(b, g, CFG) == count, b.label()
        for g in b.tower.gradings():
            if g not in (b.dominoes or {}):
                assert domino_number(b, g, CFG) == 0, b.label()
