"""Oracle-style coverage for corners the main suites touch lightly:
the custom finite-length block path, degree-4 residue fields, and
stress tests of the layered Smith pivot search.
"""

import numpy as np
import pytest
from test_rmod import check_semilinearity, check_transitions

from raynaud.blocks import FiniteLengthTower, make_block
from raynaud.formal import FormalObject, Summand
from raynaud.invariants import (
    InvariantConfig,
    crew_check,
    domino_number,
    hodge_numbers,
    hodge_witt_numbers,
    newton_slopes,
)
from raynaud.linalg import Pres, ZMod, smith_normal_form
from raynaud.rmod import Level, LevelPiece, check_relations
from raynaud.witt import FiniteField, GaloisRing


def finite_length_block(p=2, r=1):
    """A length-two Dieudonne module with nilpotent F and V = d = 0, each
    generator expanded into r coordinates with F semilinear on them."""
    R = ZMod(p, 2)
    F = R.kron(np.array([[0, 0], [1, 0]], dtype=np.int64), GaloisRing(p, r, 2).sigma_matrix())
    labels = [("x", s, c) for s in range(2) for c in range(r)]
    pieces = {0: LevelPiece(labels, Pres(R, 2 * r, (p * R.eye(2 * r)) % R.q))}
    model = Level(R, 2, pieces, {0: R.zeros(2 * r, 2 * r)}, {}, {0: F}, r=r)
    return make_block("FiniteLength", p, r=r, model=model)


def test_finite_length_block_relations_and_invariants():
    b = finite_length_block()
    assert check_relations(b.tower, 2, 4).ok()
    assert check_transitions(b.tower, 2, 4).ok()
    cfg = InvariantConfig(2, 5, 3)
    assert domino_number(b, 0, cfg) == 0
    assert newton_slopes(b, 0, cfg) == []  # torsion heart, no slopes
    X = FormalObject(2, 1, [Summand(b, 0, 0)])
    h = hodge_numbers(X, cfg)
    # V = 0: H^0 = M/VM is all of M; the F-kernel feeds degree -2
    assert h[(0, 0)] == 2
    for i in (0, 1):
        assert crew_check(X, i, cfg)
    table = hodge_witt_numbers(X, cfg)
    assert all(v == 0 for (c, v) in table.m.items())


def test_projection_refuses_repeated_labels():
    # level maps select generators by label, so a model whose labels
    # repeat has no projection to read off
    R = ZMod(2, 2)
    F = np.array([[0, 0], [1, 0]], dtype=np.int64)
    pieces = {0: LevelPiece([("x", 0), ("x", 0)], Pres(R, 2, (2 * R.eye(2)) % R.q))}
    model = Level(R, 2, pieces, {0: R.zeros(2, 2)}, {}, {0: F}, r=1)
    tower = make_block("FiniteLength", 2, model=model).tower
    with pytest.raises(ValueError, match="repeats a generator label"):
        tower.proj(0, (2, 4), (2, 3))


def test_finite_length_rejects_nonterminating_filtration():
    R = ZMod(2, 2)
    pieces = {0: LevelPiece([("w", 0)], Pres(R, 1))}
    # V = identity: Fil never dies, so the model is not finite length
    model = Level(R, 2, pieces, {0: R.eye(1)}, {}, {0: R.eye(1)}, r=1)
    with pytest.raises(ValueError):
        FiniteLengthTower(model, 2)


@pytest.mark.parametrize("p,r", [(2, 4), (3, 4), (5, 3), (7, 2)])
def test_degree_four_fields_and_blocks(p, r):
    field = FiniteField(p, r)  # verifies irreducibility on construction
    w = field.gen()
    assert (w ** (p**r - 1)).coords == field.one().coords
    b = make_block("UnitW", p, r=r)
    rep = check_semilinearity(b.tower, 2, 4, w)
    assert rep.ok()


def test_smith_normal_form_stress():
    rng = np.random.default_rng(99)
    for p, m in [(2, 8), (3, 5), (7, 4)]:
        R = ZMod(p, m)
        for _ in range(6):
            rows, cols = int(rng.integers(20, 60)), int(rng.integers(20, 60))
            A = R.reduce(rng.integers(0, R.q, size=(rows, cols)))
            # plant structured rows to exercise the valuation layers
            A[0] = (A[0] * p**2) % R.q
            U, V, exps = smith_normal_form(A, R)
            D = (U @ A @ V) % R.q
            off = D.copy()
            for t in range(min(rows, cols)):
                off[t, t] = 0
            assert not off.any()
            assert exps == sorted(exps)
            for t, e in enumerate(exps):
                assert R.val(D[t, t]) == min(e, m)


def test_zmod_overflow_guard():
    with pytest.raises(ValueError):
        ZMod(7, 13)
    ZMod(7, 8)  # the documented bound is fine


def test_r2_slopes_are_computed():
    from fractions import Fraction

    b = make_block("Dieudonne", 2, r=2, i=1, j=1)
    cfg = InvariantConfig(3, 8, 3)
    assert newton_slopes(b, 0, cfg) == [(Fraction(1, 2), 2)]
    # a custom block answers at r = 2 as well (a torsion heart, no slope),
    # and slopes are not one of its inputs
    fl = finite_length_block(r=2)
    assert newton_slopes(fl, 0, cfg) == []
    table = hodge_witt_numbers(FormalObject(2, 2, [Summand(fl, 0, 0)]), cfg)
    assert table.h[(0, 0)] == 2 and not any(table.m.values())
    with pytest.raises(ValueError, match="FiniteLength does not read slopes"):
        make_block("FiniteLength", 2, r=2, model=None, slopes={})


def test_newton_polygon_respects_large_shifts():
    from raynaud.invariants import newton_polygon
    from fractions import Fraction

    cfg = InvariantConfig(3, 8, 3)
    X = FormalObject.of_blocks(2, 1, ("UnitW", -30, -30))
    poly = newton_polygon(X, 60, cfg)
    assert poly == [(Fraction(30), 1)]


def test_empty_object_invariants_and_cli(tmp_path, capsys):
    from raynaud.cli import main
    from raynaud.invariants import hodge_witt_numbers as hw

    X = FormalObject(2, 1, [])
    table = hw(X, InvariantConfig(2, 5, 3))
    assert table.h == {} and table.hW == {}
    f = tmp_path / "empty.json"
    f.write_text('{"p": 2, "r": 1, "object": []}')
    code = main(["invariants", str(f)])
    out, _ = capsys.readouterr()
    assert code == 0
