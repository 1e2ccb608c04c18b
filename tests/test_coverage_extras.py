"""Oracle-style coverage for corners the main suites touch lightly:
a brute-force enumeration oracle for hom spaces, the custom
finite-length block path, degree-4 residue fields, and stress tests of
the layered Smith pivot search.
"""

import itertools

import numpy as np
import pytest

from raynaud.blocks import FiniteLengthTower, make_block
from raynaud.formal import FormalObject, Summand
from raynaud.homs import hom_space
from raynaud.invariants import (
    InvariantConfig,
    crew_check,
    domino_number,
    hodge_numbers,
    hodge_witt_numbers,
    newton_slopes,
)
from raynaud.linalg import Pres, ZMod, smith_normal_form
from raynaud.rmod import Level, LevelPiece, check_relations, check_transitions
from raynaud.witt import FiniteField


def brute_force_tower_homs(src, dst, m, n):
    """Enumerate every matrix family over two levels and keep the tower
    homs: commuting with V, d, F and the transitions.  Only feasible
    for one-generator pieces over tiny rings."""
    q = src.p**m
    Ls, Ld = src.level(m, n), dst.level(m, n)
    Ls1, Ld1 = src.level(m, n - 1), dst.level(m, n - 1)
    assert Ls.piece(0).ngens == Ld.piece(0).ngens == 1
    sols = []
    for phi in range(q):
        for psi in range(q):
            ok = True
            # V-commutation at the top level
            lhs = (phi * Ls.V(0)[0, 0]) % q
            rhs = (Ld.V(0)[0, 0] * phi) % q
            ok &= Ld.piece(0).pres.element_is_zero(np.array([lhs - rhs]))
            # F across levels and transition compatibility
            Fs = src.F_true(0, m, n)[0, 0]
            Fd = dst.F_true(0, m, n)[0, 0]
            ok &= Ld1.piece(0).pres.element_is_zero(np.array([(Fd * phi - psi * Fs)]))
            Ps = src.proj(0, (m, n), (m, n - 1))[0, 0]
            Pd = dst.proj(0, (m, n), (m, n - 1))[0, 0]
            ok &= Ld1.piece(0).pres.element_is_zero(np.array([(Pd * phi - psi * Ps)]))
            if ok:
                sols.append((phi, psi))
    return sols


def test_hom_w_w_matches_brute_force():
    # the full solution set of maps W -> W at (2, 4) is the free rank-1
    # module of scalars; the chain solver reports the same
    w = make_block("UnitW", 2).tower
    sols = brute_force_tower_homs(w, w, 2, 4)
    phis = sorted({phi for phi, _ in sols})
    assert phis == [0, 1, 2, 3]  # all scalars c, sigma(c) = c
    h = hom_space(w, w, 2, 4)
    assert h.exps == [2]
    assert h.rank_and_torsion(2) == (1, [])


def test_hom_d_w_matches_brute_force():
    d = make_block("DAlphaP", 2).tower
    w = make_block("UnitW", 2).tower
    # brute force over single-level maps finds the socle phantoms, but
    # the (phi, psi)-chains kill them: only the zero family survives
    q = 4
    Ls, Ld = d.level(2, 4), w.level(2, 4)
    Ld1 = w.level(2, 3)
    survivors = []
    for phi in range(q):
        if not Ld.piece(0).pres.element_is_zero(np.array([2 * phi])):
            continue  # must be well-defined on the p-torsion source
        for psi in range(q):
            Fd = w.F_true(0, 2, 4)[0, 0]
            # F phi = psi F_src = 0 and psi = phi mod the lower level
            if (Fd * phi - 0) % 2 == 0 and (psi - phi) % 2 == 0:
                if Ld1.piece(0).pres.element_is_zero(np.array([2 * psi])):
                    survivors.append((phi, psi))
    # phantoms exist levelwise (phi = 2) but each forces psi = 2 = p*unit,
    # which is not well-defined one more level up; the solver agrees
    h = hom_space(d, w, 2, 4)
    assert h.exps == []


def finite_length_block(p=2):
    """A length-two Dieudonne module with nilpotent F and V = d = 0."""
    R = ZMod(p, 2)
    F = np.array([[0, 0], [1, 0]], dtype=np.int64)
    pieces = {0: LevelPiece([("x", 0), ("x", 1)], Pres(R, 2, (p * R.eye(2)) % R.q))}
    model = Level(R, 2, pieces, {0: R.zeros(2, 2)}, {}, {0: F}, r=1)
    return make_block("FiniteLength", p, model=model, slopes={}, dominoes={})


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
    rep = check_relations(b.tower, 2, 4, scalar=w)
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


def test_r2_slopes_come_from_metadata():
    from fractions import Fraction

    b = make_block("Dieudonne", 2, r=2, i=1, j=1)
    cfg = InvariantConfig(3, 8, 3)
    assert newton_slopes(b, 0, cfg) == [(Fraction(1, 2), 2)]


def test_newton_polygon_respects_large_shifts():
    from raynaud.invariants import newton_polygon
    from fractions import Fraction

    cfg = InvariantConfig(3, 8, 3)
    X = FormalObject.of_blocks(2, 1, ("UnitW", -30, -30))
    poly = newton_polygon(X, 60, cfg)
    assert poly == [(Fraction(30), 1)]


def test_hom_k_to_domino_matches_enumeration():
    """The classifying Hom space, brute-forced: maps from the shifted
    residue field into U_{-1} over two chain levels, enumerated over all
    matrix pairs mod p, against the chain solver."""
    from raynaud.homs import hom_space
    from raynaud.rmod import SumTower

    p, m, n = 2, 1, 3
    src = SumTower([(make_block("ResidueK", p).tower, -1)], p)
    dst = make_block("Domino", p, t=-1).tower
    Ls, Ld = src.level(m, n), dst.level(m, n)
    Ls1, Ld1 = src.level(m, n - 1), dst.level(m, n - 1)
    nu, nu1 = Ld.piece(1).ngens, Ld1.piece(1).ngens
    Fs = src.F_true(1, m, n)
    Fd = dst.F_true(1, m, n)
    Ps = src.proj(1, (m, n), (m, n - 1))
    Pd = dst.proj(1, (m, n), (m, n - 1))
    sols = []
    for phi_bits in itertools.product(range(p), repeat=nu):
        phi = np.array(phi_bits, dtype=np.int64).reshape(nu, 1)
        for psi_bits in itertools.product(range(p), repeat=nu1):
            psi = np.array(psi_bits, dtype=np.int64).reshape(nu1, 1)
            # V and d vanish on both sides; F and the transition must agree
            okF = ((Fd @ phi - psi @ Fs) % p == 0).all()
            okP = ((Pd @ phi - psi @ Ps) % p == 0).all()
            if okF and okP:
                sols.append(phi_bits)
    nonzero = [s for s in sols if any(s)]
    # exactly p - 1 nonzero solutions: the scalar multiples of the
    # equal-coefficient map
    assert len(nonzero) == p - 1
    assert all(len(set(s)) == 1 for s in nonzero)
    h = hom_space(src, dst, m, n)
    assert h.dim_k() == 1


def test_hom_stable_across_truncations():
    from raynaud.homs import hom_space
    from raynaud.rmod import SumTower

    src = SumTower([(make_block("ResidueK", 2).tower, -1)], 2)
    dst = make_block("Domino", 2, t=-1).tower
    assert hom_space(src, dst, 2, 6).exps == hom_space(src, dst, 3, 8).exps


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
