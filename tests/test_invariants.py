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

from test_coverage_extras import finite_length_block

from raynaud import invariants
from raynaud.blocks import DominoTower, make_block
from raynaud.formal import FormalObject
from raynaud.invariants import (
    InvariantConfig,
    _f_infty_b,
    _v_infty_z,
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
    rn_tensor_block,
    slope_numbers,
    symmetry_check,
    totalize,
)
from raynaud.linalg import Pres, ZMod, kernel_into
from raynaud.rmod import Tower, Unstable

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


def test_crew_sums_stay_exact_on_negative_j_cells():
    # (-1) ** j is a float for j < 0; the sums must stay int or Fraction
    X = FormalObject.of_blocks(
        3, 1, (make_block("Dieudonne", 3, i=2, j=1), 0, 0), (make_block("Domino", 3, t=1), 1, -1)
    )
    sums = {}
    for i in (0, 1):
        c = crew_check(X, i, CFG)
        assert c
        for key in ("hW_sum", "h_sum"):
            assert isinstance(c.details[key], (int, Fraction)), (i, key, c.details[key])
        sums[i] = c.details["hW_sum"]
    assert sums == {0: 0, 1: -2}


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


# The slopes (slope -> multiplicity, at grading 0) and domino numbers
# (grading -> T) of each built-in block, read off its definition rather
# than computed: E_{j/(i+j)} has the one slope j/(i+j), i + j times; W is
# E_0, slope 0 once; k, D(alpha_p) and the dominoes have a torsion heart,
# so no slope (Manin's classification).  The package keeps no such table.
BLOCK_ORACLE = [
    ("UnitW", {}, {Fraction(0): 1}, {}),
    ("ResidueK", {}, {}, {}),
    ("DAlphaP", {}, {}, {}),
    ("Domino", {"t": 0}, {}, {0: 1}),
    ("Domino", {"t": -1}, {}, {0: 1}),
    ("Dieudonne", {"i": 1, "j": 1}, {Fraction(1, 2): 2}, {}),
    ("Dieudonne", {"i": 2, "j": 1}, {Fraction(1, 3): 3}, {}),
    ("Dieudonne", {"i": 1, "j": 2}, {Fraction(2, 3): 3}, {}),
]


def test_newton_slopes_match_block_metadata():
    # every block at p in {2, 3}, r in {1, 2}; the isoclinic ones at r = 3
    cases = [(p, r, entry) for p in (2, 3) for r in (1, 2) for entry in BLOCK_ORACLE]
    cases += [(2, 3, e) for e in BLOCK_ORACLE if e[0] in ("UnitW", "Dieudonne")]
    for p, r, (kind, params, slopes, _) in cases:
        b = make_block(kind, p, r=r, **params)
        for g in b.tower.gradings():
            assert dict(newton_slopes(b, g, CFG)) == (slopes if g == 0 else {}), (p, r, b)


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


def test_block_hodge_table_raises_unstable_when_p_does_not_kill_r1_cohomology(monkeypatch):
    from raynaud import invariants

    # an exponent-2 class in R_1 cohomology is not killed by p
    monkeypatch.setattr(invariants, "_BLOCK_CACHE", {})
    monkeypatch.setattr(
        invariants,
        "rn_tensor_block",
        lambda block, cfg: {(0, 0): [1, 2]},
    )
    with pytest.raises(Unstable, match="killed by p"):
        invariants.block_hodge_table(make_block("UnitW", 2), CFG)


def test_rn_tensor_of_unit_is_wn():
    assert rn_tensor_block(make_block("UnitW", 2), CFG) == {(0, 0): [1]}


def test_r1_tensor_dalphap_spec_example():
    tc = rn_tensor_block(make_block("DAlphaP", 2), CFG)
    assert {c: len(e) for c, e in tc.items()} == {
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
    md = table.to_markdown()
    assert "j\\i" in md


def test_stability_across_working_levels():
    # every reported number is unchanged when (m, n) grow
    b = make_block("Domino", 2, t=1)
    X = FormalObject.of_blocks(2, 1, (b, 0, 0))
    t1 = hodge_witt_numbers(X, InvariantConfig(2, 7, 3))
    t2 = hodge_witt_numbers(X, InvariantConfig(3, 9, 3))
    assert t1.hW == t2.hW and t1.h == t2.h and t1.T == t2.T


def test_block_metadata_agrees_with_computed_invariants():
    # the oracle's domino numbers, and the slope numbers its slopes give,
    # m^{0,0} = sum (1 - l) mult_l and m^{1,-1} = sum l mult_l, match the
    # computations at the block's stabilization level, at r = 1 and 2
    for r in (1, 2):
        for kind, params, slopes, dominoes in BLOCK_ORACLE:
            b = make_block(kind, 2, r=r, **params)
            for g in b.tower.gradings():
                assert domino_number(b, g, CFG) == dominoes.get(g, 0), b
            m = {(0, 0): sum((1 - lam) * mu for lam, mu in slopes.items())}
            m[(1, -1)] = sum(lam * mu for lam, mu in slopes.items())
            X = FormalObject.of_blocks(2, r, (b, 0, 0))
            assert slope_numbers(X, CFG) == {c: v for c, v in m.items() if v}, b


def _v_infty_z_every_step(tower, i, m, n):
    """V^-inf Z with all n + 1 steps and a kernel at each, zero map or
    not, and no cache.  Kept only as the oracle of `_v_infty_z`, which
    stops at d V^s = 0, skips zero products and caches per level."""
    L = tower.level(m, n)
    R = L.R
    piece = L.piece(i)
    G = R.eye(piece.ngens)
    tgt = L.piece(i + 1).pres
    dVs = L.d(i)  # d V^s
    for _ in range(n + 1):
        ker = kernel_into(R.matmul(dVs, G), Pres(R, G.shape[1]), tgt)
        G = R.matmul(G, ker)
        G = G[:, G.any(axis=0)] if G.size else G
        if not G.size:
            break
        dVs = R.matmul(dVs, L.V(i))
    return G if G.size else R.zeros(piece.ngens, 0)


V_INFTY_Z_BLOCKS = [
    ("UnitW", {}),
    ("ResidueK", {}),
    ("DAlphaP", {}),
    ("Domino", {"t": -1}),
    ("Domino", {"t": 0}),
    ("Domino", {"t": 1}),
    ("Dieudonne", {"i": 1, "j": 1}),
    ("Dieudonne", {"i": 2, "j": 1}),
    ("FiniteLength", {}),
]


class _Deeper(Tower):
    """The same tower, its level (m, n) read at depth n + 2."""

    def __init__(self, base):
        super().__init__(base.p, base.r)
        self.base = base

    def gradings(self):
        return self.base.gradings()

    def _build(self, m, n):
        return self.base.level(m, n + 2)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind,params", V_INFTY_Z_BLOCKS)
def test_v_infty_z_spans_what_every_step_spans(kind, params, p):
    block = finite_length_block(p) if kind == "FiniteLength" else make_block(kind, p, **params)
    # a level built from a deeper one: the n + 1 bound stays
    for tower in (block.tower, _Deeper(block.tower)):
        gradings = tower.gradings()
        for m, n in [(2, 5), (3, 8)]:
            R = tower.level(m, n).R
            for i in range(min(gradings) - 1, max(gradings) + 2):
                got = _v_infty_z(tower, i, m, n)
                want = _v_infty_z_every_step(tower, i, m, n)
                assert got.shape[0] == want.shape[0]
                assert Pres(R, got.shape[0], got).element_is_zero(want)
                assert Pres(R, want.shape[0], want).element_is_zero(got)


def test_v_infty_z_solves_no_zero_map_and_nothing_twice(monkeypatch):
    solved = []  # per kernel_into call: is the map nonzero?
    real = invariants.kernel_into

    def counted(A, src, dst):
        solved.append(bool((np.asarray(A) % src.R.q).any()))
        return real(A, src, dst)

    monkeypatch.setattr(invariants, "kernel_into", counted)
    tower = DominoTower(2, 0)  # not the session's cached block: cold levels
    first = {i: _v_infty_z(tower, i, 3, 8) for i in tower.gradings()}
    assert solved and all(solved), f"{solved.count(False)} kernels of a zero map"
    before = len(solved)
    for i, G in first.items():
        assert _v_infty_z(tower, i, 3, 8) is G
        with pytest.raises(ValueError):
            G[...] = 0  # the cached array is read-only
    assert len(solved) == before
