"""Exact arithmetic in truncated Witt vectors W_m(F_{p^r}).

Elements are coordinate vectors (a_0, ..., a_{m-1}) over F_{p^r}.  The
production route is `GaloisRing`: W_m(F_{p^r}) as the unramified lift
Z/p^m[x]/(modulus), converted through Teichmueller digits; `blocks`
builds its Frobenius matrices from it.  `WittRing` (`witt_add`,
`witt_mul`, `witt_neg`) is the independent oracle: it evaluates the
universal Witt sum/product polynomials through the integer ghost
recursion

    S_n = (w_n(a) + w_n(b) - sum_{i<n} p^i S_i^(p^(n-i))) / p^n,

carried out in GaloisRing(p, r, 2m), where every division is exact.
The tests check the oracle against the exhaustive ring isomorphism
W_m(F_p) = Z/p^m, and the Galois-ring route against the oracle.

The model of F_{p^r} is a fixed irreducible polynomial per (p, r) from
the table below (r <= 4); the choice is immaterial to everything
downstream, which only uses that the Frobenius exists.  Irreducibility
is verified at construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

# monic irreducible polynomials over F_p, low degree first, degree r last (monic)
_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
}


class IncompatibleParameters(ValueError):
    pass


def _poly_mul_mod(a, b, modulus, q):
    """Multiply coefficient tuples mod (modulus(x), q); modulus is monic."""
    r = len(modulus) - 1
    if r == 0:
        raise ValueError("modulus must have positive degree")
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % q
    for k in range(len(res) - 1, r - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for j in range(r):
                res[k - r + j] = (res[k - r + j] - c * modulus[j]) % q
    res = res[:r] + [0] * (r - len(res))
    return tuple(x % q for x in res[:r])


def _poly_pow_mod(a, e, modulus, q):
    result = (1,) + (0,) * (len(modulus) - 2)
    base = a
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, q)
        base = _poly_mul_mod(base, base, modulus, q)
        e >>= 1
    return result


@lru_cache(maxsize=None)  # one check per stored modulus, not per Witt operation
def _check_irreducible(p, f):
    # no monic factor of degree <= deg(f)//2; brute force is fine for deg(f) <= 4
    for deg in range(1, len(f) // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(_poly_mul_mod(f, (1,), tail + (1,), p)):  # f mod g
                raise AssertionError(f"stored modulus {f} reducible over F_{p}")


class FiniteField:
    """F_{p^r} in a fixed polynomial basis."""

    def __init__(self, p: int, r: int = 1):
        if r < 1 or r > 4:
            raise ValueError("field degree r must be in 1..4")
        self.p = p
        self.r = r
        if r == 1:
            self.modulus = (0, 1)  # x, i.e. the prime field
        else:
            try:
                self.modulus = _MODULI[(p, r)]
            except KeyError:
                raise ValueError(f"no stored irreducible polynomial for p={p}, r={r}")
            _check_irreducible(p, self.modulus)

    def elt(self, coords) -> "FieldElt":
        if isinstance(coords, int):
            coords = (coords % self.p,) + (0,) * (self.r - 1)
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.r:
            raise ValueError("wrong number of coordinates")
        return FieldElt(self.p, self.r, coords, self)

    def zero(self):
        return self.elt(0)

    def one(self):
        return self.elt(1)

    def gen(self):
        if self.r == 1:
            return self.elt(1)
        return self.elt((0, 1) + (0,) * (self.r - 2))

    def elements(self):
        for coords in itertools.product(range(self.p), repeat=self.r):
            yield self.elt(coords)

    def random(self, rng):
        return self.elt(tuple(int(x) for x in rng.integers(0, self.p, self.r)))

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"FiniteField({self.p}, {self.r})"


@dataclass(frozen=True)
class FieldElt:
    p: int
    r: int
    coords: tuple
    field: FiniteField

    def __add__(self, other):
        self._compat(other)
        return self.field.elt(tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._compat(other)
        return self.field.elt(tuple((a - b) % self.p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return self.field.elt(tuple((-a) % self.p for a in self.coords))

    def __mul__(self, other):
        self._compat(other)
        return self.field.elt(_poly_mul_mod(self.coords, other.coords, self.field.modulus, self.p))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return self.field.elt(_poly_pow_mod(self.coords, e, self.field.modulus, self.p))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        # x^(p^r - 2)
        return self ** (self.p**self.r - 2)

    def frobenius(self):
        return self**self.p

    # test oracle only: the semilinearity check V a = sigma^-1(a) V of
    # tests/test_rmod.py takes sigma^-1 of a scalar here
    def frobenius_inverse(self):
        return self ** (self.p ** (self.r - 1)) if self.r > 1 else self

    def is_zero(self):
        return not any(self.coords)

    def _compat(self, other):
        if (self.p, self.r) != (other.p, other.r):
            raise IncompatibleParameters("incompatible field parameters")

    def __eq__(self, other):
        return isinstance(other, FieldElt) and (self.p, self.r, self.coords) == (
            other.p,
            other.r,
            other.coords,
        )

    def __hash__(self):
        return hash((self.p, self.r, self.coords))


# ---------------------------------------------------------------------------
# the ghost recursion: kept as the oracle for the Galois-ring route.  The
# exhaustive Z/p^m tables in tests/test_witt.py, test_galois_ring_route_agrees
# and acceptance criterion 10 check against it; nothing in the pipeline
# calls it.


def _ghost(lift, coords_lifted, n):
    """w_n = sum_{i<=n} p^i a_i^(p^(n-i)) in the lift ring."""
    p = lift.p
    acc = lift.zero()
    for i in range(n + 1):
        term = lift.pow(coords_lifted[i], p ** (n - i))
        acc = lift.add(acc, lift.scalar(p**i, term))
    return acc


def _witt_combine(a_coords, b_coords, field, m, op):
    """Shared ghost recursion for sum ('add'), product ('mul'), negation."""
    p = field.p
    lift = GaloisRing(p, field.r, 2 * m)
    A = [c.coords for c in a_coords]
    B = [c.coords for c in b_coords] if b_coords is not None else None
    S = []
    out = []
    for n in range(m):
        if op == "add":
            target = lift.add(_ghost(lift, A, n), _ghost(lift, B, n))
        elif op == "mul":
            target = lift.mul(_ghost(lift, A, n), _ghost(lift, B, n))
        elif op == "neg":
            target = lift.scalar(-1, _ghost(lift, A, n))
        else:
            raise ValueError(op)
        acc = target
        for i in range(n):
            acc = lift.sub(acc, lift.scalar(p**i, lift.pow(S[i], p ** (n - i))))
        if any(x % p**n for x in acc):
            raise ArithmeticError("ghost recursion division not exact")
        sn = tuple(x // p**n for x in acc)
        S.append(sn)
        out.append(lift.residue(sn))
    return tuple(out)


@dataclass(frozen=True)
class WittScalar:
    """Element of W_m(F_{p^r}) in Witt coordinates."""

    p: int
    r: int
    m: int
    components: tuple  # of FieldElt

    @property
    def field(self):
        return self.components[0].field if self.components else FiniteField(self.p, self.r)

    def _compat(self, other):
        if (self.p, self.r, self.m) != (other.p, other.r, other.m):
            raise IncompatibleParameters("incompatible Witt parameters")

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __add__(self, other):
        return witt_add(self, other)

    def __mul__(self, other):
        return witt_mul(self, other)

    def __neg__(self):
        return witt_neg(self)

    def __sub__(self, other):
        return witt_add(self, witt_neg(other))


class WittRing:
    """W_m(F_{p^r}) with its Frobenius and Verschiebung."""

    def __init__(self, p: int, r: int = 1, m: int = 1):
        if m < 1:
            raise ValueError("length m must be >= 1")
        self.p, self.r, self.m = p, r, m
        self.field = FiniteField(p, r)

    def scalar(self, coords) -> WittScalar:
        comps = tuple(c if isinstance(c, FieldElt) else self.field.elt(c) for c in coords)
        if len(comps) != self.m:
            raise ValueError("wrong number of Witt components")
        return WittScalar(self.p, self.r, self.m, comps)

    def zero(self):
        return self.scalar([0] * self.m)

    def one(self):
        return self.scalar([1] + [0] * (self.m - 1))

    def from_int(self, n: int) -> WittScalar:
        out = self.zero()
        one = self.one()
        for _ in range(n % (self.p**self.m)):
            out = witt_add(out, one)
        return out

    def random(self, rng):
        return self.scalar([self.field.random(rng) for _ in range(self.m)])

    # test oracle only: the exhaustive checks of tests/test_witt.py run
    # over every element of W_m(F_q)
    def elements(self):
        for comps in itertools.product(list(self.field.elements()), repeat=self.m):
            yield WittScalar(self.p, self.r, self.m, tuple(comps))


def witt_add(a: WittScalar, b: WittScalar) -> WittScalar:
    a._compat(b)
    return WittScalar(a.p, a.r, a.m, _witt_combine(a.components, b.components, a.field, a.m, "add"))


def witt_mul(a: WittScalar, b: WittScalar) -> WittScalar:
    a._compat(b)
    return WittScalar(a.p, a.r, a.m, _witt_combine(a.components, b.components, a.field, a.m, "mul"))


def witt_neg(a: WittScalar) -> WittScalar:
    return WittScalar(a.p, a.r, a.m, _witt_combine(a.components, None, a.field, a.m, "neg"))


def frobenius(a: WittScalar) -> WittScalar:
    """sigma: coordinate-wise p-th power (k perfect)."""
    return WittScalar(a.p, a.r, a.m, tuple(c.frobenius() for c in a.components))


def verschiebung(a: WittScalar) -> WittScalar:
    """Coordinate shift (a_0, ...) -> (0, a_0, ...); the top coordinate drops."""
    comps = (a.field.zero(),) + a.components[: a.m - 1]
    return WittScalar(a.p, a.r, a.m, comps)


def teichmuller(x: FieldElt, m: int) -> WittScalar:
    comps = (x,) + tuple(x.field.zero() for _ in range(m - 1))
    return WittScalar(x.p, x.r, m, comps)


def valuation(a: WittScalar):
    """Least index with nonzero Witt coordinate; +inf for zero.

    For r = 1 this is the p-adic valuation under W_m(F_p) = Z/p^m.
    """
    for i, c in enumerate(a.components):
        if not c.is_zero():
            return i
    return math.inf


# ---------------------------------------------------------------------------
# Galois ring: Teichmueller digits and the Frobenius matrix over Z/p^m


class GaloisRing:
    """W_m(F_{p^r}) as Z/p^m[x]/(modulus), the unramified lift."""

    def __init__(self, p, r, m):
        self.p, self.r, self.m = p, r, m
        self.q = p**m
        self.field = FiniteField(p, r)
        self.modulus = tuple(int(c) for c in self.field.modulus)

    def mul(self, a, b):
        if self.r == 1:
            return ((a[0] * b[0]) % self.q,)
        return _poly_mul_mod(a, b, self.modulus, self.q)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def zero(self):
        return (0,) * self.r

    def pow(self, a, e):
        if self.r == 1:
            return (pow(a[0], e, self.q),)
        return _poly_pow_mod(a, e, self.modulus, self.q)

    def scalar(self, c, a):
        return tuple((c * x) % self.q for x in a)

    def teichmuller(self, b: FieldElt):
        z = b.coords
        for _ in range(self.m + 1):
            z = self.pow(z, self.p**self.r)
        return z

    def residue(self, z) -> FieldElt:
        return self.field.elt(tuple(c % self.p for c in z))

    def digits(self, z):
        """Teichmueller digits: z = sum p^i [b_i]."""
        out = []
        for _ in range(self.m):
            b = self.residue(z)
            out.append(b)
            t = self.teichmuller(b)
            diff = self.sub(z, t)
            z = tuple(c // self.p for c in diff)
        return out

    def sigma(self, z):
        """The Frobenius lift, acting as [b] -> [b^p] on digits."""
        total = self.zero()
        for i, b in enumerate(self.digits(z)):
            total = self.add(total, self.scalar(self.p**i, self.teichmuller(b.frobenius())))
        return total

    def sigma_matrix(self, inverse=False):
        """r x r integer matrix of sigma^(+-1) on the basis 1, x, .., x^(r-1)."""
        import numpy as np

        cols = []
        for j in range(self.r):
            basis = tuple(1 if i == j else 0 for i in range(self.r))
            z = basis
            count = self.r - 1 if inverse else 1
            for _ in range(count):
                z = self.sigma(z)
            cols.append(z)
        return np.array(cols, dtype=np.int64).T % self.q

    def from_witt(self, a: WittScalar):
        total = self.zero()
        for i, c in enumerate(a.components):
            root = c ** (self.p ** ((-i) % self.r)) if self.r > 1 else c
            total = self.add(total, self.scalar(self.p**i, self.teichmuller(root)))
        return total

    # test oracle only: tests/test_witt.py::test_galois_ring_route_agrees
    # reads the Galois-ring route back into Witt coordinates here
    def to_witt(self, z) -> WittScalar:
        comps = []
        for i, b in enumerate(self.digits(z)):
            comps.append(b ** (self.p**i) if self.r > 1 else b)
        return WittScalar(self.p, self.r, self.m, tuple(comps))
