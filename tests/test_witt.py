"""Witt vector arithmetic, anchored on the exhaustive Z/p^m oracle.

The oracle is built before anything else: n -> n * (1,0,...,0) by
repeated Witt addition must be a ring isomorphism W_m(F_p) = Z/p^m,
checked on all pairs for small parameters.
"""

import math

import numpy as np
import pytest

from raynaud import witt
from raynaud.witt import (
    FiniteField,
    GaloisRing,
    IncompatibleParameters,
    WittRing,
    frobenius,
    teichmuller,
    valuation,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)


def build_oracle(p, m):
    """Table n -> Witt coordinates of n, by repeated addition of 1."""
    ring = WittRing(p, 1, m)
    table = [ring.zero()]
    for _ in range(p**m - 1):
        table.append(witt_add(table[-1], ring.one()))
    return ring, table


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_ring_isomorphism_exhaustive(p, m):
    ring, table = build_oracle(p, m)
    q = p**m
    assert len({t.components for t in table}) == q  # bijective
    for a in range(q):
        for b in range(q):
            s = witt_add(table[a], table[b])
            assert s == table[(a + b) % q]
            prod = witt_mul(table[a], table[b])
            assert prod == table[(a * b) % q]


@pytest.mark.parametrize("p,m", [(5, 2), (5, 3)])
def test_ring_isomorphism_sampled(p, m):
    ring, table = build_oracle(p, m)
    q = p**m
    assert len({t.components for t in table}) == q
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b = int(rng.integers(q)), int(rng.integers(q))
        assert witt_add(table[a], table[b]) == table[(a + b) % q]
        assert witt_mul(table[a], table[b]) == table[(a * b) % q]


def test_spec_values_against_oracle():
    ring, table = build_oracle(2, 3)
    one = ring.scalar([1, 0, 0])
    assert witt_add(one, one) == ring.scalar([0, 1, 0])  # 1 + 1 = 2
    two = ring.scalar([0, 1, 0])
    assert witt_mul(two, two) == table[4]  # 2 * 2 = 4
    assert table[4] == ring.scalar([0, 0, 1])
    assert verschiebung(ring.one()) == table[2]  # V(1) = 2 in Z/8

    ring3 = WittRing(3, 1, 2)
    t3 = [ring3.zero()]
    for _ in range(8):
        t3.append(witt_add(t3[-1], ring3.one()))
    # 1 + 2 = 3, whose Witt coordinates are (0, 1); note that the vector
    # (2, 0) is the Teichmueller lift [2] = -1, not the integer 2 = (2, 1)
    assert witt_add(t3[1], t3[2]) == t3[3]
    assert t3[3] == ring3.scalar([0, 1])
    assert t3[2] == ring3.scalar([2, 1])
    assert witt_add(ring3.scalar([1, 0]), ring3.scalar([2, 0])) == ring3.zero()


def test_additive_identity_exhaustive():
    ring = WittRing(2, 1, 3)
    zero = ring.zero()
    for x in ring.elements():
        assert witt_add(x, zero) == x
        assert witt_mul(x, ring.one()) == x


def test_negation():
    ring, table = build_oracle(3, 2)
    for n in range(9):
        assert witt_neg(table[n]) == table[(-n) % 9]


@pytest.mark.parametrize("p,r,m", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_ring_laws_random(p, r, m):
    ring = WittRing(p, r, m)
    rng = np.random.default_rng(42)
    for _ in range(500):
        a, b, c = ring.random(rng), ring.random(rng), ring.random(rng)
        assert witt_add(a, b) == witt_add(b, a)
        assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))


@pytest.mark.parametrize("p,r,m", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2), (5, 1, 3)])
def test_fv_vf_p_and_semilinearity(p, r, m):
    ring = WittRing(p, r, m)
    rng = np.random.default_rng(7)
    p_elt = ring.from_int(p)
    for _ in range(500):
        x, y = ring.random(rng), ring.random(rng)
        assert frobenius(verschiebung(x)) == witt_mul(p_elt, x)
        assert witt_mul(verschiebung(x), verschiebung(y)) == verschiebung(
            witt_mul(p_elt, witt_mul(x, y))
        )
        # sigma is a ring homomorphism
        assert frobenius(witt_add(x, y)) == witt_add(frobenius(x), frobenius(y))
        assert frobenius(witt_mul(x, y)) == witt_mul(frobenius(x), frobenius(y))
        # V is sigma^{-1}-semilinear against Teichmueller scalars:
        # V([a] x) = [a^(1/p)] V(x) would need a root; the testable form is
        # [a^p] V(x) = V([a] ... ) -- equivalently V([a^p] x) = [a] V(x) fails;
        # the ring-level anchor is V(x) * [a] = V(x * F([a])).
        a = teichmuller(ring.field.random(rng), m)
        assert witt_mul(verschiebung(x), a) == verschiebung(witt_mul(x, frobenius(a)))


def test_frobenius_identity_for_prime_field():
    ring = WittRing(2, 1, 3)
    for x in ring.elements():
        assert frobenius(x) == x


def test_frobenius_on_teichmuller_generator():
    field = FiniteField(2, 2)
    w = field.gen()
    assert frobenius(teichmuller(w, 3)) == teichmuller(w * w, 3)


def test_frobenius_order_r():
    ring = WittRing(3, 2, 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = ring.random(rng)
        assert frobenius(frobenius(x)) == x


def test_teichmuller_multiplicative():
    field = FiniteField(2, 2)
    for x in field.elements():
        for y in field.elements():
            assert witt_mul(teichmuller(x, 3), teichmuller(y, 3)) == teichmuller(x * y, 3)


def test_frobenius_is_pth_power_mod_v():
    ring = WittRing(3, 2, 3)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = ring.random(rng)
        assert frobenius(x).components[0] == x.components[0] ** 3


def test_valuation():
    ring, table = build_oracle(2, 3)
    one = ring.one()
    assert valuation(verschiebung(one)) == 1
    assert valuation(ring.zero()) == math.inf
    v1 = verschiebung(one)
    assert valuation(witt_mul(v1, v1)) == 2  # val(4) = 2 in Z/8
    assert verschiebung(ring.zero()) == ring.zero()
    # valuation agrees with the oracle's p-adic valuation
    for n in range(1, 8):
        v = 0
        k = n
        while k % 2 == 0:
            k //= 2
            v += 1
        assert valuation(table[n]) == v


def test_parameter_mismatch():
    a = WittRing(2, 1, 3).zero()
    b = WittRing(3, 1, 3).zero()
    with pytest.raises(IncompatibleParameters):
        witt_add(a, b)
    with pytest.raises(IncompatibleParameters):
        witt_mul(a, WittRing(2, 1, 2).zero())


def test_high_precision_arithmetic_is_fast_and_consistent():
    # m = 8 is the pipeline default; spot-check against integer arithmetic
    ring = WittRing(2, 1, 8)
    x = ring.from_int(171)
    y = ring.from_int(99)
    gr = GaloisRing(2, 1, 8)
    assert gr.from_witt(witt_add(x, y))[0] == (171 + 99) % 256
    assert gr.from_witt(witt_mul(x, y))[0] == (171 * 99) % 256


@pytest.mark.parametrize("p,r,m", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_galois_ring_route_agrees(p, r, m):
    ring = WittRing(p, r, m)
    gr = GaloisRing(p, r, m)
    rng = np.random.default_rng(13)
    for _ in range(60):
        a, b = ring.random(rng), ring.random(rng)
        assert gr.to_witt(gr.from_witt(a)) == a
        s = gr.add(gr.from_witt(a), gr.from_witt(b))
        assert gr.to_witt(s) == witt_add(a, b)
        pr = gr.mul(gr.from_witt(a), gr.from_witt(b))
        assert gr.to_witt(pr) == witt_mul(a, b)
        assert gr.to_witt(gr.sigma(gr.from_witt(a))) == frobenius(a)


def test_sigma_matrix_invertible_and_order():
    gr = GaloisRing(2, 2, 3)
    S = gr.sigma_matrix()
    Sinv = gr.sigma_matrix(inverse=True)
    q = 8
    assert np.array_equal((S @ Sinv) % q, np.eye(2, dtype=np.int64))


def test_stored_moduli_irreducible_and_reducible_ones_refused(monkeypatch):
    for p, r in witt._MODULI:
        assert FiniteField(p, r).modulus == witt._MODULI[(p, r)]
    # x^2 + 1 = (x + 1)^2 over F_2; (x^2 + 1)^2 over F_3 has no linear factor
    for (p, r), reducible in [((2, 2), (1, 0, 1)), ((3, 4), (1, 0, 2, 0, 1))]:
        monkeypatch.setitem(witt._MODULI, (p, r), reducible)
        with pytest.raises(AssertionError, match="reducible"):
            FiniteField(p, r)
