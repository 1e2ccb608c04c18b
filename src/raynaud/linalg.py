"""Exact linear algebra over the local ring Z/p^m.

Everything the graded-module kernel needs reduces to a handful of
primitives over Z/p^m: Smith normal form with unimodular transforms,
kernels of matrices between modules with prescribed coordinate
annihilators, membership tests, presentations of spans and quotients,
and a division-free characteristic polynomial.  `smith_normal_form` is
the only elimination: inverses (`invert_unimodular`), kernels
(`kernel_gens`), solves (`LinearSolver`) and membership
(`Pres.element_is_zero`, on the presentation's cached normal form) all
read its transforms.  It also returns U^-1, from the inverse column
operations of the same elimination: a `Pres` is factored once, with
U^-1 kept on its nonzero cyclic factors only, and every question about
it (`normal_basis` included) reads that factorization.

This module is the one builder of presentations: `Pres.direct_sum`
(over `blockdiag`) is the only direct sum of presented modules, and
`normal_basis` reads a module's minimal generators, the coordinates of
every element on them and their presentation off the module's own
normal form, U^-1 included; `minimal_gens` applies it to a span's
presentation.  A span is presented once, by the caller that reads it:
the chain helpers of `rmod` return spans as generator columns, never
presentations.

Matrices are numpy int64 arrays with entries reduced into [0, q),
q = p^m.  `ZMod.reduce` returns an int64 argument already in range
itself, not a copy, so callers never write into its result; `Pres` and
`present_span` copy what they keep.  `smith_normal_form` eliminates
row-sparse over Python ints, so it is exact for every q; its cost grows
with the nonzeros and their fill-in.  Every matrix product of the
package goes through `ZMod.matmul`, which checks the bound
k * (q - 1)^2 for inner dimension k: below 2^53 it multiplies large
products in float64 through BLAS, below 2^63 it uses int64, and above
that Python ints, so no product can overflow silently.  The one limit
left is elementwise: `ZMod` raises `PrecisionOutOfRange` on q^2 >= 2^62,
which keeps `ZMod.kron`, the package's one Kronecker product, exact.
"""

from __future__ import annotations

import itertools

import numpy as np

_INT64_SAFE = 2**62
_FLOAT64_EXACT = 2**53  # float64 holds every integer below this exactly
_INT64_EXACT = 2**63
_BLAS_MIN_WORK = 2**16  # multiply-adds of the smallest product sent to BLAS


class PrecisionOutOfRange(ValueError):
    """A precision m with (p^m)^2 >= 2^62, which `ZMod` refuses."""


class ZMod:
    """The coefficient ring Z/p^m, p prime, with p-adic valuations."""

    __slots__ = ("p", "m", "q")

    def __init__(self, p: int, m: int):
        if p < 2 or m < 1:
            raise ValueError("need a prime p >= 2 and precision m >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if self.q * self.q >= _INT64_SAFE:
            top = next(k for k in itertools.count() if p ** (2 * k + 2) >= _INT64_SAFE)
            raise PrecisionOutOfRange(f"precision {m} at p = {p} exceeds {top}, the int64 limit")

    def val(self, x: int) -> int:
        """p-adic valuation of x mod p^m; the valuation of 0 is m."""
        x = int(x) % self.q
        if x == 0:
            return self.m
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def inv_unit(self, u: int) -> int:
        u = int(u) % self.q
        if u % self.p == 0:
            raise ZeroDivisionError(f"{u} is not a unit mod {self.p}^{self.m}")
        return pow(u, -1, self.q)

    def reduce(self, A) -> np.ndarray:
        """A as an int64 array with entries in [0, q).

        An int64 array already in range is returned itself, not copied,
        so callers never write into the result.  The range check is one
        `max` over the array viewed as uint64, where negative entries
        read as at least 2^63; on large arrays it is much cheaper than
        the `%`.
        """
        A = np.asarray(A, dtype=np.int64)
        if A.size and A.view(np.uint64).max() >= self.q:
            return A % self.q
        return A

    def matmul(self, A, B) -> np.ndarray:
        """The exact product A @ B mod q, reduced into [0, q).

        B may be a vector, a matrix or a stack of matrices.  Both
        factors are reduced first, so a product with inner dimension k
        sums k terms of at most (q - 1)^2.  While that sum stays below
        2^53 every partial sum is an integer float64 holds exactly,
        whatever order BLAS adds in, so the product runs in float64
        (numpy has no BLAS for int64); below 2^63 it runs in int64, and
        above that over Python ints.  Products of fewer than
        _BLAS_MIN_WORK multiply-adds (a stack counts every matrix) stay
        in int64 even below 2^53: there the float64 round trip saves at
        most tens of microseconds, and a process's first BLAS call costs
        about half a MiB of resident memory.
        """
        A, B = self.reduce(A), self.reduce(B)
        bound = A.shape[-1] * (self.q - 1) ** 2
        work = A.size * B.size // max(A.shape[-1], 1)  # multiply-adds
        if bound < _FLOAT64_EXACT and work >= _BLAS_MIN_WORK:
            C = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
        elif bound < _INT64_EXACT:
            C = A @ B
        else:
            C = np.asarray((A.astype(object) @ B.astype(object)) % self.q, dtype=np.int64)
        return C % self.q

    def kron(self, A, B) -> np.ndarray:
        """The Kronecker product of the matrices A and B mod q, reduced
        into [0, q): with B of shape (rb, cb), entry (i rb + k, j cb + l)
        is A[i, j] B[k, l].

        Both factors are reduced first, so every entry is one product of
        two residues below q; `__init__` refuses q^2 >= 2^62, so that
        product is exact in int64.
        """
        A, B = self.reduce(A), self.reduce(B)
        (ra, ca), (rb, cb) = A.shape, B.shape
        return (A[:, None, :, None] * B[None, :, None, :]).reshape(ra * rb, ca * cb) % self.q

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def __repr__(self):
        return f"ZMod({self.p}, {self.m})"

    def __eq__(self, other):
        return isinstance(other, ZMod) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))


def smith_normal_form(A, R: ZMod, left=True, right=True, left_inverse=False):
    """Return (U, V, exps) with U @ A @ V = diag(p^exps) mod p^m.

    U and V are invertible over Z/p^m and exps is ascending, so the
    diagonal forms a divisibility chain.  An exponent equal to R.m
    means the diagonal entry is 0 in Z/p^m.  With left=False (right=False)
    U (V) is not accumulated and None is returned in its place; the
    pivots, the other transform and exps do not change.  With
    left_inverse=True a fourth value, U^-1, is returned: each row
    operation on U is the inverse column operation on U^-1, so it is
    read off the same elimination (Storjohann, "Algorithms for matrix
    canonical forms", 2000) instead of a second factorization.

    Pivots are chosen layer by layer in the valuation: in layer e the
    pivot is the first row, in the current row order, with a
    valuation-e entry in the remaining submatrix, and the first such
    column of that row.  Once every valuation-e entry is exhausted none
    can reappear, so every remaining entry is divisible by p^e.

    The elimination is row-sparse over Python ints.  Each row not yet
    pivoted is a {column: value} dict holding its nonzero entries, with a
    column -> rows index, so a pivot touches only the rows with an entry
    in its column.  Row and column swaps are logical permutations.  After
    the row operations column t is p^e e_t and every entry of row t is a
    multiple of p^e, so the column operations that clear row t change no
    other row: they act only on V.  U is kept as sparse rows, V and U^-1
    as sparse columns; each is filled into its int64 array by one
    scatter, at return.

    The cost grows with the nonzeros and their fill-in, not with the
    matrix size; the matrices raynaud factors are a few percent nonzero.
    On dense matrices (say 60x60 full, or 120x200 at 5-30% nonzero)
    this is several times slower than a vectorized dense sweep.
    """
    D = R.reduce(A)
    rows, cols = D.shape
    p, q = R.p, R.q
    k = min(rows, cols)
    Drow = [{} for _ in range(rows)]
    Dcol = [set() for _ in range(cols)]
    ri, ci = np.nonzero(D)
    for i, j, v in zip(ri.tolist(), ci.tolist(), D[ri, ci].tolist()):
        Drow[i][j] = v
        Dcol[j].add(i)
    # rord[pos] is the row (cord[pos] the column) now at position pos
    rord, rpos = list(range(rows)), list(range(rows))
    cord, cpos = list(range(cols)), list(range(cols))
    Urow = [{i: 1} for i in range(rows)] if left else None
    Vcol = [{j: 1} for j in range(cols)] if right else None
    # column i of U^-1 pairs with row i of U: it moves with that row's swaps
    Icol = [{i: 1} for i in range(rows)] if left_inverse else None
    live = set(range(rows))  # rows not yet pivoted: positions t and up
    exps = []
    t = 0
    for e in range(R.m):
        if t >= k or not any(Drow[i] for i in live):
            break
        pe = p**e
        pp = pe * p
        # rows with a valuation-e entry; only rows a step changes are rechecked
        hot = {i for i in live if any(v % pp for v in Drow[i].values())}
        while t < k and hot:
            pi = min(hot, key=rpos.__getitem__)
            prow = Drow[pi]
            pj = min((j for j, v in prow.items() if v % pp), key=cpos.__getitem__)
            a, b = rord[t], rpos[pi]
            rord[t], rord[b], rpos[pi], rpos[a] = pi, a, t, b
            a, b = cord[t], cpos[pj]
            cord[t], cord[b], cpos[pj], cpos[a] = pj, a, t, b
            w = prow[pj] // pe
            u = R.inv_unit(w)
            if u != 1:
                for j in prow:
                    prow[j] = prow[j] * u % q
                if left:
                    urow = Urow[pi]
                    for j in urow:
                        urow[j] = urow[j] * u % q
                if left_inverse:  # row pi *= u, so column pi *= u^-1 = w
                    icol = Icol[pi]
                    for j in icol:
                        icol[j] = icol[j] * w % q
            for j in prow:
                Dcol[j].discard(pi)
            live.discard(pi)
            hot.discard(pi)
            pitems = list(prow.items())
            uitems = list(Urow[pi].items()) if left else None
            for i in Dcol[pj]:
                row = Drow[i]
                c = row[pj] // pe
                for j, v in pitems:
                    x = (row.get(j, 0) - c * v) % q
                    if x:
                        if j not in row:
                            Dcol[j].add(i)
                        row[j] = x
                    elif j in row:
                        del row[j]
                        if j != pj:  # Dcol[pj] is being walked; emptied below
                            Dcol[j].discard(i)
                if left:
                    _sub_multiple(Urow[i], c, uitems, q)
                if left_inverse:  # row i -= c row pi, so column pi += c column i
                    _sub_multiple(Icol[pi], -c, list(Icol[i].items()), q)
                if any(v % pp for v in row.values()):
                    hot.add(i)
                else:
                    hot.discard(i)
            Dcol[pj] = set()
            if right:
                vitems = list(Vcol[pj].items())
                for j, v in pitems:
                    if j != pj:
                        _sub_multiple(Vcol[j], v // pe, vitems, q)
            exps.append(e)
            t += 1
    exps += [R.m] * (k - len(exps))
    U = V = None
    if left:
        U = R.zeros(rows, rows)
        pos, idx, val = _flatten(Urow, rord)
        U[pos, idx] = val
    if right:
        V = R.zeros(cols, cols)
        pos, idx, val = _flatten(Vcol, cord)
        V[idx, pos] = val
    if not left_inverse:
        return U, V, exps
    Uinv = R.zeros(rows, rows)
    pos, idx, val = _flatten(Icol, rord)
    Uinv[idx, pos] = val
    return U, V, exps, Uinv


def _flatten(vecs, order):
    """The entries of the sparse vectors vecs[order[pos]] ({index: value}
    dicts) as three int64 arrays (pos, index, value), for one scatter."""
    lens = [len(vecs[i]) for i in order]
    n = sum(lens)
    pos = np.repeat(np.arange(len(order)), lens)
    idx = np.fromiter(itertools.chain.from_iterable(vecs[i] for i in order), np.int64, n)
    val = np.fromiter(itertools.chain.from_iterable(vecs[i].values() for i in order), np.int64, n)
    return pos, idx, val


def _sub_multiple(vec, c, items, q):
    """vec -= c * w over Z/q for sparse vectors ({index: value} dict vec,
    (index, value) pairs of w); zero entries are dropped."""
    for j, v in items:
        x = (vec.get(j, 0) - c * v) % q
        if x:
            vec[j] = x
        else:
            vec.pop(j, None)


def invert_unimodular(U, R: ZMod) -> np.ndarray:
    """Inverse of a matrix invertible over Z/p^m; ZeroDivisionError otherwise.

    With A U B = 1 from the Smith normal form, the inverse is B A.  This
    inverts a matrix given on its own (the closed-form star's F^-1); the
    inverse of a normal form's transform comes out of that normal form's
    own elimination (`normal_basis`).
    """
    A, B, exps = smith_normal_form(U, R)
    if U.shape[0] != U.shape[1] or any(exps):
        raise ZeroDivisionError("matrix is not invertible over Z/p^m")
    return R.matmul(B, A)


def kernel_gens(A, R: ZMod, src_exps=None, rows=None) -> np.ndarray:
    """Generators (columns) of {x : A x = 0 over Z/p^m}, where source
    coordinate j is understood mod p^src_exps[j] (plain Z/p^m if omitted).

    With `rows`, only the first `rows` coordinates of each generator are
    formed, and generators that vanish there are dropped.
    """
    rows_A, cols = np.shape(A)
    if rows_A == 0 or not np.any(A):
        G = R.eye(cols)[:rows]
    else:
        # column t of V spans p^(m - e_t) times itself in the kernel (0
        # when e_t = 0), and every column past the diagonal all of itself
        _, V, exps = smith_normal_form(A, R, left=False)
        scale = np.ones(cols, dtype=np.int64)
        scale[: len(exps)] = R.p ** (R.m - np.array(exps, dtype=np.int64)) % R.q
        G = V[:rows] * scale % R.q
    if src_exps is not None:
        lat = np.diag([R.p ** min(e, R.m) for e in src_exps]).astype(np.int64) % R.q
        G = np.concatenate([G, lat[:rows]], axis=1)
    return G[:, G.any(axis=0)]


def _diagonal_quotient(U, exps, X, R: ZMod):
    """Y with diag(p^exps) Y = U X, or None when there is none.  X is a
    vector or a matrix of columns; exps is padded with R.m to U's height,
    and an exponent R.m (the diagonal entry 0 in Z/p^m) needs 0."""
    pe = np.full(U.shape[0], R.q, dtype=np.int64)
    pe[: len(exps)] = [R.p ** min(e, R.m) for e in exps]
    c = R.matmul(U, X)
    pe = pe.reshape((-1,) + (1,) * (c.ndim - 1))
    if (c % pe).any():
        return None
    return c[: len(exps)] // pe[: len(exps)]


class LinearSolver:
    """Cached Smith transforms for solving A x = b repeatedly."""

    def __init__(self, A, R: ZMod):
        self.R = R
        self.U, self.V, self.exps = smith_normal_form(A, R)

    def solve(self, b):
        """x with A x = b, or None when b is not in the image.  For a
        matrix b, x solves every column at once (None if any column is
        outside the image)."""
        y = _diagonal_quotient(self.U, self.exps, b, self.R)
        if y is None:
            return None
        return self.R.matmul(self.V[:, : len(y)], y)


class Pres:
    """A module presented as (Z/p^m)^ngens modulo the span of `rels`.

    Relations are stored reduced mod p^m, sorted lexicographically (row
    0 first) with duplicate and zero columns dropped: the nonzero columns
    `np.unique(axis=1)` would keep, however many columns were given.  The
    module is factored once, lazily, by the first `normal_form()` call:
    `_nf` caches (exps, U, gens), the exponents of the cyclic
    decomposition, the basis transform U and the columns of U^-1 on the
    nonzero factors (not the whole inverse).  The implicit lattice
    p^m * (every generator) is always part of the relations.
    """

    __slots__ = ("R", "ngens", "rels", "_nf")

    def __init__(self, R: ZMod, ngens: int, rels=None):
        self.R = R
        self.ngens = ngens
        if rels is None or (hasattr(rels, "size") and rels.size == 0):
            rels = R.zeros(ngens, 0)
        rels = R.reduce(rels)
        if rels.shape[0] != ngens:
            raise ValueError("relation matrix has wrong number of rows")
        if rels.shape[1]:
            # np.lexsort takes its last key as the primary one
            rels = rels[:, np.lexsort(rels[::-1])]
            keep = rels.any(axis=0)
            keep[1:] &= (rels[:, 1:] != rels[:, :-1]).any(axis=0)
            rels = rels[:, keep]
        else:
            rels = rels.copy()  # `reduce` may have returned the caller's array
        self.rels = rels
        self._nf = None

    @classmethod
    def direct_sum(cls, R: ZMod, pieces):
        """The direct sum of the presentations in the list `pieces`,
        generators in order."""
        rels = blockdiag(R, [pc.rels for pc in pieces], rows=[pc.ngens for pc in pieces])
        return cls(R, sum(pc.ngens for pc in pieces), rels)

    def normal_form(self):
        """(exps, P): exps[i] = annihilator exponent of the i-th new
        generator; x_new = P x_old diagonalizes the relation lattice."""
        if self._nf is None:
            R, n = self.R, self.ngens
            if self.rels.shape[1] == 0:
                U = Uinv = R.eye(n)
                exps = [R.m] * n
            else:
                U, _, sexps, Uinv = smith_normal_form(self.rels, R, right=False, left_inverse=True)
                exps = sexps + [R.m] * (n - len(sexps))
            gens = Uinv[:, [t for t, e in enumerate(exps) if e > 0]]
            gens.flags.writeable = False  # `normal_basis` hands out this array itself
            self._nf = (exps, U, gens)
        return self._nf[:2]

    @property
    def exps(self):
        return self.normal_form()[0]

    def length(self) -> int:
        """Length over Z/p^m (= log_p of the order for finite modules)."""
        return int(sum(self.exps))

    def kdim(self) -> int:
        """Dimension over F_p when the module is a vector space."""
        exps = self.exps
        if any(e > 1 for e in exps):
            raise ValueError("module is not killed by p; no k-dimension")
        return sum(1 for e in exps if e == 1)

    def min_exps(self) -> list:
        """Sorted nonzero annihilator exponents (the SNF invariant)."""
        return sorted(e for e in self.exps if e > 0)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exps)

    def element_is_zero(self, X) -> bool:
        """Whether the vector X, or every column of the matrix X, is zero
        in the module: the one membership test, read off the normal form."""
        exps, U = self.normal_form()
        return _diagonal_quotient(U, exps, X, self.R) is not None

    def __repr__(self):
        return f"Pres({self.R!r}, exps={self.min_exps()})"


def kernel_into(A, src: Pres, dst: Pres) -> np.ndarray:
    """Generators of ker(A : src -> dst) in source coordinates.

    Solves A x in span(rels_dst) modulo the relations of src; the source
    relations are included among the generators (they map to zero).
    """
    R = src.R
    # unknowns (x, y) with A x - rels_dst y = 0 over Z/q
    big = np.concatenate([A, (-dst.rels) % R.q], axis=1)
    G = kernel_gens(big, R, rows=src.ngens)
    G = np.concatenate([G, src.rels], axis=1)
    G = G[:, G.any(axis=0)]
    return G if G.size else R.zeros(src.ngens, 0)


def present_span(G, amb: Pres) -> Pres:
    """The submodule spanned by the columns of G inside amb, presented
    on G's columns as generators."""
    R = amb.R
    t = G.shape[1]
    return Pres(R, t, kernel_into(R.reduce(G), Pres(R, t), amb))


def normal_basis(pres: Pres):
    """The generators of pres read off its own normal form.

    With exps, U = pres.normal_form() and keep the t with exps[t] > 0,
    returns (gens, coords, sub): gens = the keep columns of U^-1, the
    read-only array cached with that normal form (so pres is factored at
    most once), one generator per nonzero cyclic factor, in pres's
    coordinates; coords = U[keep], so x = gens @ (coords @ x) modulo
    pres's relations for every x, with no solve; and sub, the module
    presented on gens, where the kept generator with annihilator
    exponent e has the single relation p^e.  The kept exponents are
    ascending, so sub is its own normal form (identity transform); it is
    stored, and no SNF is run for it.
    """
    R = pres.R
    exps, U = pres.normal_form()
    keep = [t for t, e in enumerate(exps) if e > 0]
    pe = np.array([R.p ** exps[t] for t in keep], dtype=np.int64) % R.q
    sub = Pres(R, len(keep), np.diag(pe)[:, pe != 0])
    eye = R.eye(len(keep))
    sub._nf = ([exps[t] for t in keep], eye, eye)
    return pres._nf[2], U[keep], sub


def minimal_gens(G, amb: Pres):
    """A minimal generating set of span(G) inside amb, with its presentation.

    Presents the span on G's columns and keeps the generators of that
    presentation's `normal_basis`.  Returns (gens, pres): gens in amb's
    coordinates, and pres on them, where the kept generator with
    annihilator exponent e has the single relation p^e.
    """
    R = amb.R
    G = R.reduce(G)
    if G.shape[1] == 0:
        return G, Pres(R, 0)
    gens, _, pres = normal_basis(present_span(G, amb))
    return R.matmul(G, gens), pres


def quotient_by(amb: Pres, extra) -> Pres:
    """amb modulo the span of the extra columns (same generators)."""
    R = amb.R
    extra = R.reduce(extra)
    rels = np.concatenate([amb.rels, extra], axis=1) % R.q
    return Pres(R, amb.ngens, rels)


def blockdiag(R: ZMod, blocks, rows=None) -> np.ndarray:
    """The block-diagonal matrix of `blocks` mod p^m; rows[k], when given,
    is the height of block k (for blocks without columns)."""
    if rows is None:
        rows = [b.shape[0] for b in blocks]
    cols = [b.shape[1] for b in blocks]
    out = R.zeros(sum(rows), sum(cols))
    ro = co = 0
    for b, r_, c in zip(blocks, rows, cols):
        out[ro : ro + r_, co : co + c] = b % R.q
        ro += r_
        co += c
    return out


def induced_matrix(img, dst_gens, dst: Pres):
    """Express the columns of img in terms of dst_gens modulo dst's relations.

    Returns the matrix B with img = dst_gens @ B (mod rels), or None if
    some column is not in the span.
    """
    R = dst.R
    img = R.reduce(img)
    if not img.shape[1]:
        return R.zeros(dst_gens.shape[1], 0)
    big = np.concatenate([dst_gens, dst.rels], axis=1) % R.q
    sol = LinearSolver(big, R).solve(img)
    return None if sol is None else sol[: dst_gens.shape[1]]


def charpoly(A, R: ZMod) -> list:
    """Characteristic polynomial of A mod p^m by the Berkowitz method.

    Division-free, so valid over Z/p^m.  Returns [1, c_1, ..., c_n] with
    char(x) = x^n + c_1 x^(n-1) + ... + c_n.
    """
    A = R.reduce(A)
    n = A.shape[0]
    if n == 0:
        return [1]
    q = R.q
    # Berkowitz: iteratively build the coefficient vector via Toeplitz products
    C = np.array([1, (-A[0, 0]) % q], dtype=np.int64)
    for k in range(1, n):
        a = A[k, k] % q
        row = A[k, :k] % q
        col = A[:k, k] % q
        Mk = A[:k, :k]
        # powers row @ Mk^j @ col for j = 0..k-1
        terms = [int(R.matmul(row, col))]
        v = col.copy()
        for _ in range(k - 1):
            v = R.matmul(Mk, v)
            terms.append(int(R.matmul(row, v)))
        # Toeplitz vector t = [1, -a, -terms[0], -terms[1], ...]
        t = [1, (-a) % q] + [(-x) % q for x in terms]
        newC = np.zeros(k + 2, dtype=np.int64)
        for i in range(k + 2):
            s = 0
            for j in range(max(0, i - len(C) + 1), min(i, len(t) - 1) + 1):
                s += t[j] * int(C[i - j])
            newC[i] = s % q
        C = newC
    return [int(c) for c in C]
