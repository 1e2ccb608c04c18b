"""Exact linear algebra over Z/p^m, checked against brute-force enumeration.

The enumeration oracle walks every vector of a small module, so kernel
sizes, span sizes and normal forms are verified independently of the
SNF machinery.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from raynaud.linalg import (
    LinearSolver,
    ZMod,
    charpoly,
    induced_matrix,
    invert_unimodular,
    kernel_gens,
    kernel_into,
    minimal_gens,
    normal_basis,
    present_span,
    Pres,
    quotient_by,
    smith_normal_form,
)
from raynaud.blocks import make_block
from raynaud.rmod import _same_span, fil_gens, mat_pow_mod


def enumerate_vectors(q, n):
    return itertools.product(range(q), repeat=n)


def brute_kernel_size(A, R, dst_exps=None):
    A = np.asarray(A) % R.q
    rows, cols = A.shape
    if dst_exps is None:
        dst_exps = [R.m] * rows
    count = 0
    for x in enumerate_vectors(R.q, cols):
        y = A @ np.array(x, dtype=np.int64)
        if all(int(y[i]) % (R.p ** min(dst_exps[i], R.m)) == 0 for i in range(rows)):
            count += 1
    return count


def brute_span_size(G, R):
    G = np.asarray(G) % R.q
    n, t = G.shape
    seen = set()
    for c in enumerate_vectors(R.q, t):
        v = tuple(int(x) for x in (G @ np.array(c, dtype=np.int64)) % R.q)
        seen.add(v)
    return len(seen)


def _span_pair(G, amb):
    """(G, amb / span(G)): a span as `rmod._same_span` compares it."""
    return G, quotient_by(amb, G)


def span_size_from_gens(G, R):
    K = present_span(G, Pres(R, G.shape[0]))
    return R.p ** K.length()


SMALL_CASES = [
    (2, 2, [[2, 1], [0, 2]]),
    (2, 2, [[1, 3], [2, 2]]),
    (2, 3, [[4, 2], [6, 4]]),
    (3, 2, [[3, 6], [0, 3]]),
    (2, 2, [[0, 0], [0, 0]]),
    (3, 1, [[1, 2, 0], [0, 1, 1]]),
]


@pytest.mark.parametrize("p,m,A", SMALL_CASES)
def test_snf_identity_and_invertibility(p, m, A):
    R = ZMod(p, m)
    A = R.reduce(A)
    U, V, exps = smith_normal_form(A, R)
    D = (U @ A @ V) % R.q
    expect = np.zeros_like(D)
    for t, e in enumerate(exps):
        expect[t, t] = pow(p, e, R.q) if e < m else 0
    assert np.array_equal(D, expect)
    assert exps == sorted(exps)
    Ui = invert_unimodular(U, R)
    assert np.array_equal((U @ Ui) % R.q, R.eye(U.shape[0]))
    Vi = invert_unimodular(V, R)
    assert np.array_equal((Vi @ V) % R.q, R.eye(V.shape[0]))


def test_snf_random_roundtrip():
    rng = np.random.default_rng(7)
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        R = ZMod(p, m)
        for _ in range(25):
            rows, cols = rng.integers(1, 5, size=2)
            A = R.reduce(rng.integers(0, R.q, size=(rows, cols)))
            U, V, exps = smith_normal_form(A, R)
            D = (U @ A @ V) % R.q
            off = D.copy()
            for t in range(min(rows, cols)):
                off[t, t] = 0
            assert not off.any()
            for t in range(min(rows, cols)):
                assert R.val(D[t, t]) == min(exps[t], m)


@pytest.mark.parametrize("p,m,A", SMALL_CASES[:4])
def test_kernel_matches_enumeration(p, m, A):
    R = ZMod(p, m)
    G = kernel_gens(A, R)
    # every generator is in the kernel
    img = (R.reduce(A) @ G) % R.q
    assert not img.any()
    assert brute_span_size(G, R) == brute_kernel_size(A, R)


def test_kernel_with_target_exponents():
    R = ZMod(2, 3)
    A = R.reduce([[1], [2]])
    # target coordinates mod (2^1, 2^2): x = 0 mod 2 and 2x = 0 mod 4
    G = kernel_into(A, Pres(R, 1), Pres(R, 2, np.diag([2, 4])))
    assert brute_span_size(G, R) == brute_kernel_size(A, R, dst_exps=[1, 2])


def test_solve_and_membership():
    R = ZMod(2, 3)
    A = R.reduce([[2, 4], [1, 6]])
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.integers(0, R.q, size=2)
        b = (A @ x) % R.q
        s = LinearSolver(A, R).solve(b)
        assert s is not None
        assert np.array_equal((A @ s) % R.q, b)
    assert Pres(R, 2, A).element_is_zero((A @ [1, 1]) % R.q)
    # 1 is odd, image of A has even first coordinate combinations only if...
    assert LinearSolver(R.reduce([[2], [0]]), R).solve([1, 0]) is None


def test_presentation_normal_form():
    R = ZMod(2, 3)
    # Z/8 + Z/8 modulo (2x = 4y) and 4y = 0: exps should be {3, ...}
    M = Pres(R, 2, R.reduce([[2], [4]]))
    size = R.p ** M.length()
    # brute force: vectors modulo span of relations + 8Z
    rels = np.concatenate([M.rels, 8 * np.eye(2, dtype=np.int64) % 8], axis=1)
    assert size == (R.q**2) // brute_span_size(M.rels, R)


def test_present_span_and_subquotient():
    R = ZMod(2, 2)
    amb = Pres(R, 2, R.reduce([[2, 0], [0, 2]]))  # (Z/2)^2
    G = R.reduce([[1], [1]])
    K = present_span(G, amb)
    assert K.min_exps() == [1]
    S = present_span(R.eye(2), quotient_by(amb, G))
    assert S.min_exps() == [1]


def test_quotient_by():
    R = ZMod(3, 2)
    amb = Pres(R, 2)  # (Z/9)^2
    Q = quotient_by(amb, R.reduce([[3], [0]]))
    assert sorted(Q.min_exps()) == [1, 2]


def test_kernel_into_with_relations():
    R = ZMod(2, 2)
    src = Pres(R, 1)  # Z/4
    dst = Pres(R, 1, R.reduce([[2]]))  # Z/2
    A = R.reduce([[1]])
    G = kernel_into(A, src, dst)
    # kernel of Z/4 -> Z/2 is 2Z/4
    K = present_span(G, src)
    assert K.min_exps() == [1]


def test_charpoly_matches_expansion():
    R = ZMod(5, 2)
    rng = np.random.default_rng(11)
    for n in [1, 2, 3, 4]:
        A = rng.integers(0, R.q, size=(n, n))
        cp = charpoly(A, R)
        # oracle: evaluate det(xI - A) at n+1 points is unusable mod p^m;
        # instead expand by permutations exactly over Z then reduce.
        coeffs = np.zeros(n + 1, dtype=object)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            # compute permutation sign
            sgn = 1
            visited = [False] * n
            for i in range(n):
                if visited[i]:
                    continue
                clen = 0
                j = i
                while not visited[j]:
                    visited[j] = True
                    j = perm[j]
                    clen += 1
                if clen % 2 == 0:
                    sgn = -sgn
            # product over i of (x*delta - A)[i, perm[i]]
            poly = np.array([1], dtype=object)
            for i in range(n):
                term = (
                    np.array([-int(A[i, perm[i]]), 1], dtype=object)
                    if perm[i] == i
                    else np.array([-int(A[i, perm[i]])], dtype=object)
                )
                poly = np.convolve(poly, term)
            padded = np.zeros(n + 1, dtype=object)
            padded[: len(poly)] = poly
            coeffs += sgn * padded
        oracle = [int(coeffs[n - i]) % R.q for i in range(n + 1)]
        assert cp == oracle


def test_charpoly_shift_matrix():
    R = ZMod(2, 3)
    A = R.reduce([[0, 2], [1, 0]])
    # char poly of [[0,p],[1,0]] is x^2 - p
    assert charpoly(A, R) == [1, 0, (-2) % 8]


# ---------------------------------------------------------------------------
# property tests: sparse, mixed-valuation matrices large enough for the
# restricted sweeps of smith_normal_form to matter

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def sparse_matrices(
    draw, max_rows=40, max_cols=60, square=False, min_size=1, densities=(0.02, 0.1, 0.3, 0.7, 1.0)
):
    """(R, A): R = Z/p^m with p in {2, 3, 5, 7}, m <= 4, and A with a
    drawn share of nonzero entries p^v * u, v < m uniform, u random."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 4))
    R = ZMod(p, m)
    rows = draw(st.integers(min_size, max_rows))
    cols = rows if square else draw(st.integers(min_size, max_cols))
    density = draw(st.sampled_from(densities))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = p ** rng.integers(0, m, size=(rows, cols))
    units = rng.integers(1, R.q, size=(rows, cols))
    A = np.where(rng.random((rows, cols)) < density, (vals * units) % R.q, 0)
    return R, A.astype(np.int64)


def _full_sweep_snf(A, R):
    """Smith normal form whose sweeps rewrite the whole trailing matrix.

    The straightforward dense form of `smith_normal_form`, with the same
    pivot rule; kept only as the oracle that the row-sparse elimination
    changes no output.
    """
    D = R.reduce(A).copy()
    rows, cols = D.shape
    U, V, q = R.eye(rows), R.eye(cols), R.q
    k = min(rows, cols)
    exps = []
    t = 0
    for e in range(R.m):
        pe = R.p**e
        while t < k:
            sub = D[t:, t:]
            cand = np.where(sub % pe == 0, (sub // pe) % R.p, 0)
            flat = int(np.argmax(cand != 0))
            if not cand.flat[flat]:
                break
            pi, pj = divmod(flat, sub.shape[1])
            pi, pj = pi + t, pj + t
            D[[t, pi]] = D[[pi, t]]
            U[[t, pi]] = U[[pi, t]]
            D[:, [t, pj]] = D[:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]
            u = R.inv_unit(D[t, t] // pe)
            D[t] = (D[t] * u) % q
            U[t] = (U[t] * u) % q
            c = (D[t + 1 :, t] // pe) % q
            D[t + 1 :] = (D[t + 1 :] - c[:, None] * D[t]) % q
            U[t + 1 :] = (U[t + 1 :] - c[:, None] * U[t]) % q
            c = (D[t, t + 1 :] // pe) % q
            D[:, t + 1 :] = (D[:, t + 1 :] - D[:, [t]] * c[None, :]) % q
            V[:, t + 1 :] = (V[:, t + 1 :] - V[:, [t]] * c[None, :]) % q
            exps.append(e)
            t += 1
        if t >= k or not D[t:, t:].any():
            break
    exps += [R.m] * (k - len(exps))
    return U, V, exps


@PROPERTY
@given(sparse_matrices())
def test_snf_diagonalizes_with_invertible_transforms(case):
    R, A = case
    U, V, exps = smith_normal_form(A, R)
    D = (U @ A @ V) % R.q
    expect = R.zeros(*A.shape)
    for t, e in enumerate(exps):
        expect[t, t] = R.p**e % R.q
    assert np.array_equal(D, expect)
    assert exps == sorted(exps)
    assert np.array_equal((U @ invert_unimodular(U, R)) % R.q, R.eye(U.shape[0]))
    assert np.array_equal((V @ invert_unimodular(V, R)) % R.q, R.eye(V.shape[0]))


@PROPERTY
@given(sparse_matrices())
def test_snf_restricted_sweeps_match_full_sweeps(case):
    R, A = case
    U, V, exps = smith_normal_form(A, R)
    U0, V0, exps0 = _full_sweep_snf(A, R)
    assert exps == exps0
    assert np.array_equal(U, U0)
    assert np.array_equal(V, V0)


@PROPERTY
@given(sparse_matrices())
def test_snf_one_sided_transforms_equal_two_sided(case):
    R, A = case
    U, V, exps = smith_normal_form(A, R)
    none_u, V1, exps1 = smith_normal_form(A, R, left=False)
    U2, none_v, exps2 = smith_normal_form(A, R, right=False)
    none_u3, none_v3, exps3 = smith_normal_form(A, R, left=False, right=False)
    assert none_u is none_v is none_u3 is none_v3 is None
    assert exps == exps1 == exps2 == exps3
    assert np.array_equal(V, V1)
    assert np.array_equal(U, U2)


LEFT_RIGHT = [(True, True), (True, False), (False, True), (False, False)]


def _assert_snf_matches_full_sweep(A, R, left, right, full=None):
    U, V, exps = smith_normal_form(A, R, left=left, right=right)
    U0, V0, exps0 = full or _full_sweep_snf(A, R)
    assert exps == exps0
    for got, ref, wanted in ((U, U0, left), (V, V0, right)):
        if not wanted:
            assert got is None
            continue
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _star_level_matrix(rows=242, cols=954, density=0.005, seed=0):
    """A matrix of the largest star-level shape and density, mod 8."""
    R = ZMod(2, 3)
    rng = np.random.default_rng(seed)
    A = rng.integers(1, R.q, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    return R, A.astype(np.int64)


# the star levels factor matrices up to 242x954 at 0.5-1.2% nonzero; the
# dense oracle takes seconds there, so few examples
@settings(PROPERTY, max_examples=3)
@given(
    sparse_matrices(
        max_rows=250, max_cols=960, min_size=100, densities=(0.002, 0.005, 0.01)
    )
)
@example(_star_level_matrix())
def test_snf_matches_full_sweep_at_star_level_shapes(case):
    R, A = case
    full = _full_sweep_snf(A, R)
    for left, right in LEFT_RIGHT:
        _assert_snf_matches_full_sweep(A, R, left, right, full)


@st.composite
def edge_matrices(draw):
    """(R, A): shapes with a zero side, all-zero matrices, and entries
    not reduced mod q, some negative."""
    R = ZMod(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if draw(st.booleans()):
        return R, np.zeros((rows, cols), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return R, rng.integers(-3 * R.q, 3 * R.q, size=(rows, cols))


@PROPERTY
@given(edge_matrices(), st.sampled_from(LEFT_RIGHT))
@example((ZMod(2, 3), np.zeros((0, 5), dtype=np.int64)), (True, True))
@example((ZMod(2, 3), np.zeros((5, 0), dtype=np.int64)), (True, True))
@example((ZMod(3, 2), np.zeros((4, 6), dtype=np.int64)), (True, True))
@example((ZMod(3, 2), np.array([[-1, 9, -12], [18, -4, 30]])), (True, True))
def test_snf_edge_inputs_match_full_sweep(case, sides):
    R, A = case
    _assert_snf_matches_full_sweep(A, R, *sides)


def _val_capped(x, R):
    """p-adic valuation of an integer, capped at m (0 has valuation m)."""
    x = abs(int(x))
    v = 0
    while x and x % R.p == 0 and v < R.m:
        x //= R.p
        v += 1
    return R.m if x == 0 else v


@PROPERTY
@given(sparse_matrices(max_rows=10, max_cols=10))
def test_snf_exponents_match_sympy_invariant_factors(case):
    R, A = case
    factors = invariant_factors(Matrix(A.tolist()))
    assert smith_normal_form(A, R)[2] == [_val_capped(d, R) for d in factors]


def _unique_columns_reference(A, R):
    """The relation columns `Pres` stored when it called `np.unique`: the
    distinct nonzero columns of A mod q in lexicographic order, a single
    column included."""
    A = R.reduce(A)
    ref = np.unique(A, axis=1)
    return ref[:, ref.any(axis=0)]


@st.composite
def relation_matrices(draw):
    """(R, A): columns drawn with repetition from a few, some of them
    zero, with entries not yet reduced mod q (so columns can agree only
    mod q)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    R = ZMod(p, draw(st.integers(1, 3)))
    rows = draw(st.integers(1, 12))
    pool_size = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, R.q, size=(rows, pool_size))
    pool[:, rng.random(pool_size) < 0.3] = 0
    A = pool[:, rng.integers(0, pool_size, size=cols)]
    return R, A + R.q * rng.integers(-1, 2, size=A.shape)


@PROPERTY
@given(relation_matrices())
def test_pres_columns_sorted_and_deduplicated_as_np_unique(case):
    R, A = case
    got, ref = Pres(R, A.shape[0], A).rels, _unique_columns_reference(A, R)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_pres_dedup_edge_cases():
    R = ZMod(3, 2)
    one = np.array([[4], [10], [0]])
    assert Pres(R, 3, one).rels.tobytes() == (one % 9).tobytes()
    # one zero column is dropped as two or more are
    assert Pres(R, 3, np.zeros((3, 1))).rels.shape == (3, 0)
    assert Pres(R, 3, np.full((3, 1), 9)).rels.shape == (3, 0)
    assert Pres(R, 3, np.zeros((3, 4))).rels.shape == (3, 0)
    for rels in (None, np.zeros((0, 0)), np.zeros((0, 5))):
        assert Pres(R, 0, rels).rels.shape == (0, 0)


def test_pres_drops_a_lone_zero_relation_column():
    # one column is normalized as two or more are: a zero relation says
    # nothing, so (Z/8) modulo 0 has no relation column however it is given
    R = ZMod(2, 3)
    for rels in ([[0]], [[0, 0]], [[8]], [[0, 16, 0]]):
        pres = Pres(R, 1, rels)
        assert pres.rels.shape == (1, 0) and pres.exps == [3], rels
    assert Pres(R, 1, [[12]]).rels.tolist() == [[4]]


@PROPERTY
@given(sparse_matrices(max_rows=8, square=True))
def test_mat_pow_mod_matches_naive_product(case):
    R, A = case
    naive = R.eye(A.shape[0])
    for s in range(10):
        assert np.array_equal(mat_pow_mod(A, s, R), naive)
        naive = (A @ naive) % R.q


# ---------------------------------------------------------------------------
# the exact product ZMod.matmul against Python-int products

# rings where the float64 (2^53) or int64 (2^63) bound on k * (q - 1)^2
# falls at a small inner dimension k
MATMUL_RINGS = [(2, 3), (3, 15), (2, 24), (7, 10), (5, 13), (2, 30)]


def _exact_product(A, B, q):
    return np.asarray((A.astype(object) @ B.astype(object)) % q, dtype=np.int64)


def _first_k_past(bound, q):
    """The least inner dimension k with k * (q - 1)^2 >= bound."""
    return -(-bound // (q - 1) ** 2)


@st.composite
def matmul_cases(draw):
    """(R, A, B): small outer sizes with inner dimensions near R's 2^53
    and 2^63 bounds (those below 300) or up to 60, or large ones (enough
    multiply-adds for BLAS) with inner dimensions near 2^53 or 14 to 60;
    entries anywhere in (-2q, 2q) or within 50 of q - 1.  B is a matrix,
    a vector, or a stack of up to three matrices (`homs.add_equation`
    passes one)."""
    R = ZMod(*draw(st.sampled_from(MATMUL_RINGS)))
    large = draw(st.booleans())
    bounds = (2**53,) if large else (2**53, 2**63)
    edges = [k for k in (_first_k_past(b, R.q) for b in bounds) if k < 300]
    if edges and draw(st.booleans()):
        k = max(0, draw(st.sampled_from(edges)) + draw(st.integers(-2, 2)))
    else:
        k = draw(st.integers(14 if large else 0, 60))
    lo, hi = (70, 100) if large else (1, 12)
    rows, cols = draw(st.integers(lo, hi)), draw(st.integers(lo - 1, hi))
    stack = (draw(st.integers(1, 3)),) if draw(st.booleans()) else ()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        A = rng.integers(-2 * R.q + 1, 2 * R.q, size=(rows, k))
        B = rng.integers(-2 * R.q + 1, 2 * R.q, size=stack + (k, cols))
    else:
        A = R.q - 1 - rng.integers(0, 50, size=(rows, k))
        B = R.q - 1 - rng.integers(0, 50, size=stack + (k, cols))
    if not large and not stack and draw(st.booleans()):
        B = B[:, 0] if cols else B.sum(axis=1)  # a vector on the right
    return R, A.astype(np.int64), B.astype(np.int64)


@settings(PROPERTY, max_examples=200)
@given(matmul_cases())
def test_matmul_matches_python_int_product(case):
    R, A, B = case
    got, want = R.matmul(A, B), _exact_product(A, B, R.q)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p,m", [(2, 24), (3, 15)])
def test_matmul_on_both_sides_of_the_float64_bound(p, m):
    # large enough for BLAS; entries near q - 1 put the sums just under
    # and just over 2^53, where float64 would start to round
    R = ZMod(p, m)
    edge = _first_k_past(2**53, R.q)
    rng = np.random.default_rng(0)
    for k in range(edge - 2, edge + 2):
        A = (R.q - 1 - rng.integers(0, 50, size=(90, k))).astype(np.int64)
        B = (R.q - 1 - rng.integers(0, 50, size=(k, 90))).astype(np.int64)
        assert R.matmul(A, B).tobytes() == _exact_product(A, B, R.q).tobytes()


@pytest.mark.parametrize("copies,blas", [(7, False), (8, True)])
def test_matmul_work_counts_every_matrix_of_a_stack(copies, blas, monkeypatch):
    # each 8x8 @ 8x128 product is 8192 multiply-adds; a stack of 8 is
    # 65536, the least sent to float64 BLAS
    import types

    from raynaud import linalg

    seen = []

    class Spy(types.ModuleType):
        def __getattr__(self, name):
            if name == "float64":
                seen.append(name)
            return getattr(np, name)

    monkeypatch.setattr(linalg, "np", Spy("numpy"))
    R = ZMod(2, 3)
    A = np.ones((8, 8), dtype=np.int64)
    B = np.ones((copies, 8, 128), dtype=np.int64)
    assert linalg._BLAS_MIN_WORK == 8 * 8 * 128 * 8
    assert R.matmul(A, B).tobytes() == _exact_product(A, B, R.q).tobytes()
    assert bool(seen) == blas


def test_matmul_vector_products_and_empty_inner_dimension():
    R = ZMod(3, 15)
    x = np.arange(5, dtype=np.int64) * (R.q // 7)
    assert int(R.matmul(x, x)) == int(_exact_product(x, x, R.q))
    assert R.matmul(R.zeros(3, 0), R.zeros(0, 4)).tobytes() == R.zeros(3, 4).tobytes()


@settings(PROPERTY, max_examples=30)
@given(st.integers(116, 200), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_matmul_is_exact_where_int64_products_overflow(k, rows, cols, seed):
    # q = 7^10: k * (q - 1)^2 >= 2^63 for k > 115, so a plain int64 `@`
    # wraps on every entry of these near-(q - 1) matrices
    R = ZMod(7, 10)
    rng = np.random.default_rng(seed)
    A = (R.q - 1 - rng.integers(0, 50, size=(rows, k))).astype(np.int64)
    B = (R.q - 1 - rng.integers(0, 50, size=(k, cols))).astype(np.int64)
    want = _exact_product(A, B, R.q)
    assert R.matmul(A, B).tobytes() == want.tobytes()
    assert not np.array_equal((A @ B) % R.q, want)


def test_matmul_at_q_7_pow_10_past_the_int64_bound():
    R = ZMod(7, 10)
    ones = np.full((1, 116), R.q - 1, dtype=np.int64)
    # (q - 1)^2 = 1 mod q, so the product is 116; int64 wraps to 152682840
    assert int(((ones @ ones.T) % R.q)[0, 0]) == 152682840
    assert R.matmul(ones, ones.T).tolist() == [[116]]


# ---------------------------------------------------------------------------
# one-sided transforms: each equals the full computation it replaces


@st.composite
def matrices_at_large_q(draw):
    """(R, A) at q = 2^30 or 7^11, entries p^v * u with v <= m."""
    R = draw(st.sampled_from([ZMod(2, 30), ZMod(7, 11)]))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = R.p ** rng.integers(0, R.m + 1, size=(rows, cols))
    A = (vals * rng.integers(0, R.q, size=(rows, cols))) % R.q
    return R, A * (rng.random((rows, cols)) < draw(st.sampled_from([0.2, 0.5, 1.0])))


def _assert_inverse_read_off_the_elimination(A, R):
    """U^-1 from `smith_normal_form`'s own row operations is the inverse
    that a second factorization gives, whichever transforms are asked
    for, and asking for it changes nothing else."""
    U, V, exps = smith_normal_form(A, R)
    U2, V2, exps2, Uinv = smith_normal_form(A, R, left_inverse=True)
    assert exps2 == exps and U2.tobytes() == U.tobytes() and V2.tobytes() == V.tobytes()
    assert Uinv.dtype == U.dtype and Uinv.shape == U.shape
    assert np.array_equal(R.matmul(U, Uinv), R.eye(U.shape[0]))
    # every column, so the ones `normal_basis` keeps too
    assert Uinv.tobytes() == invert_unimodular(U, R).tobytes()
    *_, alone = smith_normal_form(A, R, left=False, right=False, left_inverse=True)
    assert alone.tobytes() == Uinv.tobytes()


@PROPERTY
@given(st.one_of(sparse_matrices(), matrices_at_large_q()))
def test_snf_inverse_transform_equals_the_inverse_of_u(case):
    _assert_inverse_read_off_the_elimination(case[1], case[0])


@settings(PROPERTY, max_examples=3)
@given(sparse_matrices(max_rows=250, max_cols=960, min_size=100, densities=(0.002, 0.005, 0.01)))
@example(_star_level_matrix())
def test_snf_inverse_transform_at_star_level_shapes(case):
    _assert_inverse_read_off_the_elimination(case[1], case[0])


def _is_zero_mod_p(pres):
    """Nakayama over the local ring Z/p^m: the module is zero iff it is
    zero mod p, i.e. iff rels mod p has full row rank over F_p (the
    implicit lattice p^m * (every generator) vanishes mod p).  The zero
    test `Pres` ran before it read its own normal form; kept only as the
    oracle of `Pres.is_zero`."""
    _, _, exps = smith_normal_form(pres.rels, ZMod(pres.R.p, 1), left=False, right=False)
    return len(exps) == pres.ngens and all(e == 0 for e in exps)


def _assert_is_zero_matches_rank_test(A, R):
    pres = Pres(R, A.shape[0], A)
    assert pres.is_zero() == _is_zero_mod_p(pres)
    assert pres._nf is not None  # answered from the normal form


@PROPERTY
@given(st.one_of(sparse_matrices(), matrices_at_large_q()))
def test_pres_is_zero_rank_test_matches_normal_form(case):
    _assert_is_zero_matches_rank_test(case[1], case[0])


@settings(PROPERTY, max_examples=3)
@given(sparse_matrices(max_rows=250, max_cols=960, min_size=100, densities=(0.002, 0.005, 0.01)))
@example(_star_level_matrix())
@example((ZMod(2, 3), np.hstack([_star_level_matrix()[1], 5 * np.eye(242, dtype=np.int64)])))
def test_pres_is_zero_at_star_level_shapes(case):
    _assert_is_zero_matches_rank_test(case[1], case[0])


def test_normal_basis_factors_each_presentation_once(monkeypatch):
    # one factorization, with U^-1, answers the normal form, the basis and
    # the zero test, whichever is asked first; only the inverse's columns
    # on the nonzero factors are kept
    import raynaud.linalg as linalg

    calls = []
    snf = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda *a, **k: calls.append(k) or snf(*a, **k))
    R = ZMod(3, 2)
    rels = np.array([[3, 0, 1], [0, 0, 3], [1, 3, 0]])
    fresh = Pres(R, 3, rels)
    gens, coords, sub = normal_basis(fresh)
    fresh.is_zero()
    cached = Pres(R, 3, rels)
    cached.normal_form()
    again = normal_basis(cached)
    normal_basis(cached)
    assert len(calls) == 2 and all(k["left_inverse"] for k in calls)
    kept = sum(1 for e in cached.exps if e > 0)
    assert 0 < kept < 3 and cached._nf[2].shape == (3, kept)
    assert again[0] is cached._nf[2] and not again[0].flags.writeable
    for a, b in zip((gens, coords, sub.rels), (again[0], again[1], again[2].rels)):
        assert a.tobytes() == b.tobytes()


def _kernel_into_then_slice(A, src, dst):
    """`kernel_into` with the whole kernel basis formed and then cut to its
    first src.ngens rows.  Kept only as the oracle for the row-first
    `kernel_into`."""
    R = src.R
    big = np.concatenate([R.reduce(A), (-dst.rels) % R.q], axis=1)
    G = kernel_gens(big, R)[: src.ngens, :]
    G = np.concatenate([G, src.rels], axis=1) % R.q
    G = G[:, G.any(axis=0)]
    return G if G.size else R.zeros(src.ngens, 0)


def _kernel_gens_concat_glue(A, R, src_exps=None, rows=None):
    """`kernel_gens` as it was before one scale vector replaced its glue:
    the scaled diagonal columns split off, the columns past the diagonal
    and the lattice concatenated, then reduced.  Kept only as the oracle
    of the one-scale `kernel_gens`."""
    rows_A, cols = np.shape(A)
    gens = []
    if rows_A == 0 or not np.any(A):
        gens.append(R.eye(cols)[:rows])
    else:
        _, V, exps = smith_normal_form(A, R, left=False)
        V = V[:rows]
        exps = np.array(exps, dtype=np.int64)
        r = len(exps)
        scaled = (V[:, :r] * R.p ** (R.m - exps)) % R.q
        gens += [scaled[:, exps > 0], V[:, r:]]
    if src_exps is not None:
        lat = np.diag([R.p ** min(e, R.m) for e in src_exps]).astype(np.int64) % R.q
        gens.append(lat[:rows])
    G = np.concatenate(gens, axis=1) % R.q
    return G[:, G.any(axis=0)] if G.size else G


@PROPERTY
@given(sparse_matrices(max_rows=12, max_cols=12, min_size=0), st.data())
def test_kernel_gens_one_scale_equals_the_concatenated_glue(case, data):
    R, A = case
    cols = A.shape[1]
    # entries outside [0, q) too: kernel_gens leaves reduction to the SNF
    lift = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = A + R.q * lift.integers(-1, 2, size=A.shape)
    src_exps = data.draw(st.none() | st.lists(st.integers(0, R.m + 1), min_size=cols, max_size=cols))
    rows = data.draw(st.none() | st.integers(0, cols))
    got = kernel_gens(A, R, src_exps=src_exps, rows=rows)
    want = _kernel_gens_concat_glue(A, R, src_exps=src_exps, rows=rows)
    if rows == 0:
        # no coordinate formed: every generator vanishes and is dropped,
        # where the old glue kept an empty column per generator it built
        # (kernel_into drops those columns itself)
        assert got.dtype == want.dtype and got.shape == (0, 0) and want.shape[0] == 0
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def maps_between_presented_modules(draw):
    """(A, src, dst): presented modules on up to 8 generators with up to 8
    relation columns each, and a dst.ngens x src.ngens matrix A."""
    R = ZMod(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def matrix(rows, cols):
        vals = R.p ** rng.integers(0, R.m + 1, size=(rows, cols))
        return (vals * rng.integers(0, R.q, size=(rows, cols))) % R.q

    a, b = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    src = Pres(R, a, matrix(a, draw(st.integers(0, 8))))
    dst = Pres(R, b, matrix(b, draw(st.integers(0, 8))))
    return matrix(b, a), src, dst


@PROPERTY
@given(maps_between_presented_modules())
def test_kernel_into_row_first_equals_kernel_then_slice(case):
    A, src, dst = case
    got, want = kernel_into(A, src, dst), _kernel_into_then_slice(A, src, dst)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _gauss_jordan_inverse(U, R):
    """Inverse of a matrix invertible over Z/p^m by one Gauss-Jordan sweep.

    Every pivot of an invertible matrix over the local ring can be
    chosen to be a unit.  Kept only as the oracle for
    `invert_unimodular`, which reads the inverse off a Smith normal form.
    """
    n = U.shape[0]
    q = R.q
    A = R.reduce(U).copy()
    B = R.eye(n)
    for t in range(n):
        col = A[t:, t] % R.p
        rel = int(np.argmax(col != 0))
        if not col[rel]:
            raise ZeroDivisionError("matrix is not invertible over Z/p^m")
        piv = rel + t
        if piv != t:
            A[[t, piv]] = A[[piv, t]]
            B[[t, piv]] = B[[piv, t]]
        inv = R.inv_unit(A[t, t])
        A[t] = (A[t] * inv) % q
        B[t] = (B[t] * inv) % q
        other = [i for i in range(n) if i != t and A[i, t]]
        if other:
            c = A[other, t][:, None]
            A[other] = (A[other] - c * A[t]) % q
            B[other] = (B[other] - c * B[t]) % q
    return B


# unimodular matrices up to 250 x 250: the Smith transforms of sparse ones
@settings(PROPERTY, max_examples=25)
@given(sparse_matrices(max_rows=250, max_cols=250, densities=(0.002, 0.01, 0.05)))
def test_invert_unimodular_matches_gauss_jordan(case):
    R, A = case
    U, V, _ = smith_normal_form(A, R)
    for T in (U, V):
        inv = invert_unimodular(T, R)
        ref = _gauss_jordan_inverse(T, R)
        assert inv.dtype == ref.dtype and inv.tobytes() == ref.tobytes()


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
def test_invert_unimodular_refuses_singular_matrices(p, m):
    R = ZMod(p, m)
    for singular in ([[1, 0], [0, p]], [[1, 0], [0, 0]], [[1, 1], [1, 1 + p]]):
        with pytest.raises(ZeroDivisionError):
            invert_unimodular(R.reduce(singular), R)


FIL_BLOCKS = [
    ("Domino", {"t": 0}),
    ("Domino", {"t": -1}),
    ("Dieudonne", {"i": 1, "j": 1}),
    ("UnitW", {}),
    ("DAlphaP", {}),
]


@pytest.mark.parametrize("kind,params", FIL_BLOCKS)
def test_fil_gens_is_d_v_power_beside_v_power(kind, params):
    L = make_block(kind, 2, **params).tower.level(3, 5)
    q = L.R.q
    above = {g + 1 for g in L.gradings()}
    for s in range(L.n + 1):
        fil = fil_gens(L, s)
        assert sorted(fil) == sorted(set(L.gradings()) | above)
        for i, got in fil.items():
            below, here = L.R.eye(L.piece(i - 1).ngens), L.R.eye(L.piece(i).ngens)
            for _ in range(s):
                below, here = (L.V(i - 1) @ below) % q, (L.V(i) @ here) % q
            want = np.concatenate([(L.d(i - 1) @ below) % q, here], axis=1)
            assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# membership, solving and kernels against enumeration of every vector of
# (Z/q)^k: matrices of at most 3 x 3 over Z/q with q <= 9

ENUMERATION = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def tiny_matrices(draw):
    """(R, A): R = Z/p^m with q = p^m <= 9 and A at most 3 x 3."""
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]))
    R = ZMod(p, m)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, R.q - 1), min_size=rows * cols, max_size=rows * cols))
    return R, np.array(entries, dtype=np.int64).reshape(rows, cols)


def brute_span(G, R):
    """Every vector in the span of the columns of G, as tuples."""
    G = np.asarray(G) % R.q
    return {
        tuple(int(x) for x in (G @ np.array(c, dtype=np.int64)) % R.q)
        for c in enumerate_vectors(R.q, G.shape[1])
    }


@ENUMERATION
@given(tiny_matrices(), st.data())
def test_span_contains_and_member_match_enumeration(case, data):
    R, G = case
    pres, inside = Pres(R, G.shape[0], G), brute_span(G, R)
    for x in enumerate_vectors(R.q, G.shape[0]):
        assert pres.element_is_zero(x) == (x in inside)
    x = data.draw(st.lists(st.integers(0, R.q - 1), min_size=G.shape[0], max_size=G.shape[0]))
    assert Pres(R, G.shape[0], G).element_is_zero(x) == (tuple(x) in inside)
    assert pres.element_is_zero(np.array([x], dtype=np.int64).T) == (tuple(x) in inside)


@ENUMERATION
@given(tiny_matrices())
def test_linear_solver_solves_exactly_the_image(case):
    R, A = case
    solver, image = LinearSolver(A, R), brute_span(A, R)
    for b in enumerate_vectors(R.q, A.shape[0]):
        x = solver.solve(b)
        assert (x is not None) == (b in image)
        if x is not None:
            assert tuple(int(v) for v in (A @ x) % R.q) == b


@ENUMERATION
@given(tiny_matrices())
def test_kernel_gens_span_the_enumerated_kernel(case):
    R, A = case
    kernel = {
        x for x in enumerate_vectors(R.q, A.shape[1]) if not ((A @ np.array(x)) % R.q).any()
    }
    assert brute_span(kernel_gens(A, R), R) == kernel


# ---------------------------------------------------------------------------
# minimal generators come with their presentation


@st.composite
def spans_in_presented_modules(draw):
    """(amb, G): a module on up to 6 generators with up to 6 relation
    columns, and up to 5 columns G in its coordinates (any may be zero)."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = ZMod(p, draw(st.integers(1, 3)))
    ngens = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def columns(k):
        vals = p ** rng.integers(0, R.m + 1, size=(ngens, k))
        return (vals * rng.integers(0, R.q, size=(ngens, k))) % R.q

    amb = Pres(R, ngens, columns(draw(st.integers(0, 6))))
    return amb, columns(draw(st.integers(0, 5)))


@PROPERTY
@given(spans_in_presented_modules())
def test_minimal_gens_span_and_presentation(case):
    amb, G = case
    gens, pres = minimal_gens(G, amb)
    assert _same_span(_span_pair(gens, amb), _span_pair(G, amb))
    assert gens.shape[1] == pres.ngens == len(pres.min_exps())
    K = present_span(G, amb)
    assert pres.min_exps() == K.min_exps()


@PROPERTY
@given(spans_in_presented_modules())
def test_minimal_gens_presentation_carries_its_normal_form(case):
    amb, G = case
    R = amb.R
    _, pres = minimal_gens(G, amb)
    exps, P = pres.normal_form()
    U, _, sexps = smith_normal_form(pres.rels, R, right=False)
    assert exps == sexps + [R.m] * (pres.ngens - len(sexps))
    assert np.array_equal(P, U)


@PROPERTY
@given(spans_in_presented_modules())
def test_normal_basis_coordinates_generators_and_presentation(case):
    """Every element is gens @ (coords @ x) modulo the relations, coords
    inverts gens on each kept cyclic factor, and the presentation on
    gens has the module's own invariants."""
    pres, _ = case
    R = pres.R
    gens, coords, sub = normal_basis(pres)
    assert gens.shape == (pres.ngens, sub.ngens) and coords.shape == (sub.ngens, pres.ngens)
    eye = R.eye(pres.ngens)
    assert pres.element_is_zero((eye - gens @ (coords @ eye)) % R.q)
    back = (coords @ gens - R.eye(sub.ngens)) % R.q
    for t, e in enumerate(sub.exps):
        assert not (back[t] % R.p**e).any()
    assert sub.min_exps() == pres.min_exps()


@PROPERTY
@given(spans_in_presented_modules())
def test_same_span_of_equal_matrices_agrees_with_factoring(case):
    amb, G = case
    R = amb.R
    factored = quotient_by(amb, G).element_is_zero(G)
    assert factored
    # equal mod q: equal quotient relations, nothing factored
    assert _same_span(_span_pair(G, amb), _span_pair(G + R.q, amb)) == factored
    doubled = np.concatenate([G, G], axis=1)
    assert _same_span(_span_pair(G, amb), _span_pair(doubled, amb)) == factored


def closed_span(cols, R, n):
    """Every vector of (Z/q)^n in the span of the columns `cols`, by
    closing {0} under adding a column; cheaper than enumerating every
    coefficient vector when there are many columns."""
    seen, todo = {(0,) * n}, [(0,) * n]
    while todo:
        v = todo.pop()
        for c in cols:
            w = tuple((a + int(b)) % R.q for a, b in zip(v, c))
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@st.composite
def two_generator_sets(draw):
    """(amb, G1, G2): a module on at most 3 generators with q <= 9, and two
    generator sets in its coordinates.  G2 is either drawn alone or G1
    times a unit upper-triangular matrix with one column G1 c + rels d
    appended, so that its span is G1's while its columns differ."""
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]))
    R = ZMod(p, m)
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def columns(k):
        vals = p ** rng.integers(0, R.m + 1, size=(n, k))
        return (vals * rng.integers(0, R.q, size=(n, k))) % R.q

    amb = Pres(R, n, columns(draw(st.integers(0, 2))))
    G1 = columns(draw(st.integers(0, 3)))
    if draw(st.booleans()):
        k = G1.shape[1]
        T = np.triu(rng.integers(0, R.q, size=(k, k)), 1) + np.eye(k, dtype=np.int64)
        c = rng.integers(0, R.q, size=(k, 1))
        d = rng.integers(0, R.q, size=(amb.rels.shape[1], 1))
        G2 = np.concatenate([G1 @ T, G1 @ c + amb.rels @ d], axis=1) % R.q
    else:
        G2 = columns(draw(st.integers(0, 3)))
    return amb, G1, G2


@ENUMERATION
@given(two_generator_sets())
def test_same_span_matches_enumerated_span_equality(case):
    amb, G1, G2 = case
    R, n = amb.R, amb.ngens
    want = closed_span([*G1.T, *amb.rels.T], R, n) == closed_span([*G2.T, *amb.rels.T], R, n)
    assert _same_span(_span_pair(G1, amb), _span_pair(G2, amb)) == want
    assert _same_span(_span_pair(G2, amb), _span_pair(G1, amb)) == want


@st.composite
def members_at_large_q(draw):
    """(pres, X, perturbed): pres = (Z/q)^ngens modulo G and rels at
    q = 2^30 or 7^11, and X with columns G c + rels d, all zero in pres
    unless `perturbed`: then one column has a random vector added."""
    R = draw(st.sampled_from([ZMod(2, 30), ZMod(7, 11)]))
    ngens, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def columns(cols):  # q^2 < 2^62, so the int64 products are exact
        vals = R.p ** rng.integers(0, R.m + 1, size=(ngens, cols))
        return (vals * rng.integers(0, R.q, size=(ngens, cols))) % R.q

    G, rels = columns(draw(st.integers(0, 4))), columns(draw(st.integers(0, 4)))
    c = rng.integers(0, R.q, size=(G.shape[1], k))
    d = rng.integers(0, R.q, size=(rels.shape[1], k))
    X = (R.matmul(G, c) + R.matmul(rels, d)) % R.q
    perturbed = draw(st.booleans())
    if perturbed:
        X[:, int(rng.integers(0, k))] += columns(1)[:, 0]
    return quotient_by(Pres(R, ngens, rels), G), X % R.q, perturbed


@PROPERTY
@given(members_at_large_q())
def test_element_is_zero_on_a_matrix_is_the_and_of_its_columns(case):
    pres, X, perturbed = case
    every = all(pres.element_is_zero(X[:, j]) for j in range(X.shape[1]))
    assert pres.element_is_zero(X) == every
    assert every or perturbed


def _induced_matrix_per_column(img, dst_gens, dst):
    """`induced_matrix` solving one column at a time through
    `LinearSolver.solve`.  Kept only as the oracle for the batched solve
    of `induced_matrix`."""
    R = dst.R
    img = R.reduce(img)
    if not img.shape[1]:
        return R.zeros(dst_gens.shape[1], 0)
    solver = LinearSolver(np.concatenate([dst_gens, dst.rels], axis=1) % R.q, R)
    cols = []
    for j in range(img.shape[1]):
        x = solver.solve(img[:, j])
        if x is None:
            return None
        cols.append(x[: dst_gens.shape[1]])
    return np.stack(cols, axis=1) % R.q


@PROPERTY
@given(spans_in_presented_modules(), st.integers(0, 2**32 - 1), st.booleans())
def test_induced_matrix_batched_equals_per_column_solves(case, seed, outside):
    amb, G = case
    R = amb.R
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 5))
    img = G @ rng.integers(0, R.q, size=(G.shape[1], k))
    img += amb.rels @ rng.integers(0, R.q, size=(amb.rels.shape[1], k))
    if outside and k:  # a column that may leave the span
        img[:, -1] = rng.integers(0, R.q, size=amb.ngens)
    got, want = induced_matrix(img % R.q, G, amb), _induced_matrix_per_column(img, G, amb)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def reduce_inputs(draw):
    """(R, A, as_list): a 1-d or 2-d int64 array, possibly empty or a
    non-contiguous view, with entries either all in [0, q) or spread
    over [-2q, 2q); as_list asks for it as nested Python lists."""
    R = ZMod(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 4)))
    shape = draw(st.sampled_from([(0,), (0, 3), (4, 0), (1,), (7,), (1, 1), (3, 5), (8, 2)]))
    lo, hi = draw(st.sampled_from([(0, R.q - 1), (-2 * R.q, 2 * R.q)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(lo, hi + 1, size=shape)
    if A.size and lo < 0:  # make sure both kinds of out-of-range entry occur
        A.flat[0], A.flat[-1] = -1, R.q
    if A.ndim == 2 and draw(st.booleans()):
        A = A.T[::-1]
    return R, A, draw(st.booleans())


@PROPERTY
@given(reduce_inputs())
def test_reduce_matches_int64_remainder(case):
    R, A, as_list = case
    arg = A.tolist() if as_list else A
    got = R.reduce(arg)
    want = np.asarray(arg, dtype=np.int64) % R.q
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert ((got >= 0) & (got < R.q)).all()
    if not as_list and A.size and A.min() >= 0 and A.max() < R.q:
        assert got is A  # already reduced: returned itself, not copied


@pytest.mark.parametrize("cols", [0, 1, 2])
def test_pres_relations_do_not_follow_the_callers_array(cols):
    R = ZMod(3, 2)
    X = np.array([[1, 4], [0, 2], [5, 0]], dtype=np.int64)[:, :cols]
    pres = Pres(R, 3, X)
    before = pres.rels.copy()
    X[:] = 7
    assert pres.rels.tobytes() == before.tobytes()
