"""Hom spaces, stabilization, isomorphism search, cones and extensions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raynaud import homs
from raynaud.blocks import make_block, truncate
from raynaud.formal import FormalObject
from raynaud.homs import (
    SearchExhausted,
    ShiftDepth,
    cone_or_extension,
    find_isomorphism,
    formal_hom,
    hom_space,
    identify_block,
)
from raynaud.invariants import InvariantConfig, domino_number_tower
from raynaud.linalg import Pres, ZMod
from raynaud.rmod import SumTower


def test_hom_k_shift_to_u_minus_one_is_one_dimensional():
    p = 2
    k_shifted = SumTower([(make_block("ResidueK", p).tower, -1)], p)  # k in grading 1
    um1 = make_block("Domino", p, t=-1).tower
    h = hom_space(k_shifted, um1, 2, 6)
    assert h.stable
    assert h.exps == [1]
    assert h.dim_k() == 1
    # the generator hits every dV-slot with equal coefficients (F-compatibility)
    mat = h.basis[0][1]
    col = mat[:, 0] % p
    assert len(set(col.tolist())) == 1 and col[0] % p != 0


def test_hom_w_w_free_of_rank_one():
    p = 3
    w = make_block("UnitW", p).tower
    h = hom_space(w, w, 3, 6)
    assert h.exps == [3]
    assert h.rank_and_torsion(3) == (1, [])


def test_hom_socle_phantom_dies():
    # maps D(alpha_p) -> W exist at every finite level through the socle
    # but do not lift up the tower; the chain system must report zero
    p = 2
    d = make_block("DAlphaP", p).tower
    w = make_block("UnitW", p).tower
    h = hom_space(d, w, 3, 6)
    assert h.exps == []


def test_hom_degree_mismatch_is_zero():
    p = 2
    x = FormalObject.of_blocks(p, 1, ("UnitW", 0, 0))
    y = FormalObject.of_blocks(p, 1, ("UnitW", 0, -1))
    h = formal_hom(x, y, 3, 6)
    assert h.exps == []


def test_formal_hom_spec_example():
    p = 2
    km1 = FormalObject.of_blocks(p, 1, ("ResidueK", -1, 0))
    um1 = FormalObject.of_blocks(p, 1, (make_block("Domino", p, t=-1), 0, 0))
    h = formal_hom(km1, um1, 2, 6)
    assert h.dim_k() == 1


def test_identify_distinguishes_dominoes():
    p = 2
    cands = [
        ("U_-1", make_block("Domino", p, t=-1).tower),
        ("U_0", make_block("Domino", p, t=0).tower),
        ("U_1", make_block("Domino", p, t=1).tower),
    ]
    for t, name in [(-1, "U_-1"), (0, "U_0"), (1, "U_1")]:
        got = identify_block(make_block("Domino", p, t=t).tower, cands, 2, 5)
        assert got is not None and got[0] == name


def test_find_isomorphism_rejects_distinct_blocks():
    p = 2
    u0 = make_block("Domino", p, t=0).tower
    w = make_block("UnitW", p).tower
    assert find_isomorphism(u0, w, 2, 5) is None


def _count_isomorphism_tests(monkeypatch, reject=lambda src: False):
    """Wrap `homs.is_isomorphism_at`: count its calls, and answer False
    without testing for the source towers `reject` picks."""
    calls = []
    real = homs.is_isomorphism_at

    def counted(phi, src, dst, m, n):
        calls.append(src)
        return False if reject(src) else real(phi, src, dst, m, n)

    monkeypatch.setattr(homs, "is_isomorphism_at", counted)
    return calls


def test_find_isomorphism_exhausted_search_is_not_a_no(monkeypatch):
    # U_0 against itself: the fingerprints match, so a search in which
    # every candidate fails leaves the question open instead of answering it
    u0 = make_block("Domino", 2, t=0).tower
    calls = _count_isomorphism_tests(monkeypatch, reject=lambda src: True)
    with pytest.raises(SearchExhausted, match="candidates") as info:
        find_isomorphism(u0, u0, 2, 5)
    tried = int(re.search(r"none of (\d+) candidates", str(info.value)).group(1))
    # every candidate is rejected at its first level: one test each, the
    # 40 random combinations and at least one solution column
    assert tried == len(calls) > 40


def test_identify_block_passes_over_an_exhausted_candidate(monkeypatch):
    u0 = make_block("Domino", 2, t=0).tower
    first = ShiftDepth(u0, 0)  # the same tower under another name
    _count_isomorphism_tests(monkeypatch, reject=lambda src: src.base is first)
    got = identify_block(u0, [("first", first), ("U_0", u0)], 2, 5)
    assert got is not None and got[:2] == ("U_0", 0)
    with pytest.raises(SearchExhausted):
        identify_block(u0, [("first", first)], 2, 5)


def test_identify_block_tries_random_combinations_first(monkeypatch):
    # the random combinations of the chain solutions are tried before the
    # single solution columns; columns first took 147, 123 and 103 tests
    p = 2
    cands = [(f"U_{t}", make_block("Domino", p, t=t).tower) for t in (-1, 0, 1)]
    calls = _count_isomorphism_tests(monkeypatch)
    for t, name in [(-1, "U_-1"), (0, "U_0"), (1, "U_1")]:
        calls.clear()
        got = identify_block(make_block("Domino", p, t=t).tower, cands, 2, 5)
        assert got is not None and got[:2] == (name, 0)
        assert len(calls) <= 10, f"{len(calls)} isomorphism tests to identify {name}"


@pytest.mark.parametrize("p,lam", [(2, 1), (3, 1), (3, 2), (5, 4)])
def test_cone_of_unit_class_is_u0(p, lam):
    res = cone_or_extension(p, lam, 3, 6)
    assert res["kind"] == "U_0"
    assert res["identification"] is not None
    assert res["identification"][0] == "U_0"


def test_cone_of_zero_class_splits():
    res = cone_or_extension(2, 0)
    assert res["kind"] == "split"
    labels = sorted(s.block.label() for s in res["object"].summands)
    assert labels == ["U_-1", "k"]
    shifts = sorted((s.i, s.j) for s in res["object"].summands)
    assert shifts == [(-1, 1), (0, 0)]


def test_domino_additivity_across_realized_ses():
    # 0 -> k(-1) -> U_{-1} -> U_0 -> 0 realized by the unit-class cone:
    # T^i of the middle equals the sum of the ends for every grading
    p = 2
    cfg = InvariantConfig(2, 6, 3)
    res = cone_or_extension(p, 1, 3, 6)
    cone_tower = res["cone_tower"]
    um1 = make_block("Domino", p, t=-1).tower
    for i in (0, 1):
        t_mid = domino_number_tower(um1, i, cfg)
        t_sub = 0  # k(-1) has no dominoes
        t_quot = domino_number_tower(cone_tower, i, cfg)
        assert t_mid == t_sub + t_quot, f"T^{i} not additive"
    assert domino_number_tower(um1, 0, cfg) == 1
    assert domino_number_tower(cone_tower, 0, cfg) == 1


def test_cone_independent_of_unit_chosen():
    # every unit class gives the same truncated presentation up to isomorphism
    p = 5
    towers = []
    for lam in (1, 2, 3):
        res = cone_or_extension(p, lam, 2, 5)
        assert res["identification"][0] == "U_0"
        towers.append(res["cone_tower"])
    phi = find_isomorphism(towers[0], towers[1], 2, 5)
    assert phi is not None


def _phi_ambient_by_columns(src, dst, m, n):
    """The reference for `homs._phi_ambient`: its relation columns written
    out one by one, the destination relations of grading i placed in the
    slot of each source generator of grading i."""
    R = ZMod(src.p, m)
    gradings = sorted(set(src.gradings()) | set(dst.gradings()))
    Ls, Ld = src.level(m, n), dst.level(m, n)
    total = sum(Ls.piece(i).ngens * Ld.piece(i).ngens for i in gradings)
    cols = []
    off = 0
    for i in gradings:
        ns, nd = Ls.piece(i).ngens, Ld.piece(i).ngens
        rels = Ld.piece(i).pres.rels
        for c in range(ns):
            for rc in range(rels.shape[1]):
                v = np.zeros(total, dtype=np.int64)
                v[off + c * nd : off + (c + 1) * nd] = rels[:, rc]
                cols.append(v)
        off += ns * nd
    Z = np.stack(cols, axis=1) % R.q if cols else R.zeros(total, 0)
    return Pres(R, total, Z)


BLOCK_SPECS = [
    ("UnitW", {}),
    ("ResidueK", {}),
    ("DAlphaP", {}),
    ("Domino", {"t": -1}),
    ("Domino", {"t": 0}),
    ("Dieudonne", {"i": 1, "j": 1}),
]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    st.sampled_from(BLOCK_SPECS),
    st.sampled_from(BLOCK_SPECS),
    st.integers(-1, 1),
    st.sampled_from([2, 3]),
    st.integers(1, 2),
    st.integers(2, 5),
)
def test_phi_ambient_direct_sum_matches_column_loop(a, b, shift, p, m, n):
    src = SumTower([(make_block(a[0], p, **a[1]).tower, shift)], p)
    dst = make_block(b[0], p, **b[1]).tower
    got, ref = homs._phi_ambient(src, dst, m, n), _phi_ambient_by_columns(src, dst, m, n)
    assert got.ngens == ref.ngens
    assert got.rels.shape == ref.rels.shape
    assert got.rels.tobytes() == ref.rels.tobytes()
