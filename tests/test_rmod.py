"""Blocks, truncation towers, ring relations, transitions, filtration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raynaud import linalg, rmod
from raynaud.blocks import make_block, truncate
from raynaud.formal import FormalObject
from raynaud.linalg import Pres, ZMod, kernel_into, present_span, quotient_by
from raynaud.rmod import (
    Level,
    RelationReport,
    Tower,
    Unstable,
    _same_span,
    check_relations,
    eventual_kernel,
    stabilize,
    stable_pushdown,
    standard_filtration,
)
from raynaud.witt import FiniteField, GaloisRing

def check_transitions(tower: Tower, m: int, n: int) -> RelationReport:
    """Transitions are surjective and commute with V, d (and F via FdV)."""
    rep = RelationReport()
    hi, lo = tower.level(m, n), tower.level(m, n - 1)
    Rl = lo.R
    for i in tower.gradings():
        P = tower.proj(i, (m, n), (m, n - 1))
        # surjectivity: every lo generator is hit
        C = quotient_by(lo.piece(i).pres, P)
        if not C.is_zero():
            rep.add("transition surjective", i, None)
        lhsV = Rl.matmul(lo.V(i), P)
        rhsV = Rl.matmul(P, hi.V(i))
        rep.require_zero("transition commutes with V", i, lhsV - rhsV, lo.piece(i).pres)
        Pn = tower.proj(i + 1, (m, n), (m, n - 1))
        lhsd = Rl.matmul(lo.d(i), P)
        rhsd = Rl.matmul(Pn, hi.d(i))
        rep.require_zero("transition commutes with d", i, lhsd - rhsd, lo.piece(i + 1).pres)
        if n >= 2:
            lo2 = tower.level(m, n - 2)
            P2 = tower.proj(i, (m, n - 1), (m, n - 2))
            lhsF = lo2.R.matmul(P2, tower.F_true(i, m, n))
            rhsF = lo2.R.matmul(tower.F_true(i, m, n - 1), P)
            rep.require_zero("transition commutes with F", i, lhsF - rhsF, lo2.piece(i).pres)
    return rep


ALL_KINDS = [
    ("UnitW", {}),
    ("ResidueK", {}),
    ("DAlphaP", {}),
    ("Domino", {"t": 0}),
    ("Domino", {"t": 1}),
    ("Domino", {"t": -1}),
    ("Domino", {"t": 2}),
    ("Domino", {"t": -2}),
    ("Dieudonne", {"i": 1, "j": 1}),
    ("Dieudonne", {"i": 2, "j": 1}),
    ("Dieudonne", {"i": 1, "j": 2}),
    ("Dieudonne", {"i": 1, "j": 0}),
]


@pytest.mark.parametrize("kind,params", ALL_KINDS)
@pytest.mark.parametrize("p", [2, 3])
def test_block_relations_and_transitions(kind, params, p):
    b = make_block(kind, p, **params)
    assert check_relations(b.tower, 3, 6).ok()
    assert check_transitions(b.tower, 3, 6).ok()


def _teichmuller_matrix(p, r, m, a):
    """Multiplication by the Teichmueller lift [a] on GaloisRing(p, r, m)."""
    gr = GaloisRing(p, r, m)
    t = gr.teichmuller(a)
    cols = [gr.mul(t, tuple(int(k == c) for k in range(r))) for c in range(r)]
    return np.array(cols, dtype=np.int64).T % p**m


def check_semilinearity(tower: Tower, m: int, n: int, a) -> RelationReport:
    """`check_relations` plus F a = sigma(a) F and V a = sigma^-1(a) V for
    the field element a, which are vacuous at r = 1.

    The package never multiplies by a scalar, so this check lives here as
    the oracle of the r > 1 block towers: a level of grading i with k
    labels carries [a] as k diagonal r x r blocks.
    """
    rep = check_relations(tower, m, n)
    if tower.r == 1:
        return rep
    hi, lo = tower.level(m, n), tower.level(m, n - 1)
    Rh, Rl = hi.R, lo.R

    def scalar(level, i, b):
        k = level.piece(i).ngens // tower.r
        return np.kron(np.eye(k, dtype=np.int64), _teichmuller_matrix(tower.p, tower.r, m, b)) % Rh.q

    for i in tower.gradings():
        if hi.piece(i).ngens == 0:
            continue
        Ft = tower.F_true(i, m, n)
        Ma = scalar(hi, i, a)
        Fa = Rl.matmul(Ft, Ma) - Rl.matmul(scalar(lo, i, a.frobenius()), Ft)
        rep.require_zero("Fa = sigma(a)F", i, Fa, lo.piece(i).pres)
        Va = Rh.matmul(hi.V(i), Ma) - Rh.matmul(scalar(hi, i, a.frobenius_inverse()), hi.V(i))
        rep.require_zero("Va = sigma^-1(a)V", i, Va, hi.piece(i).pres)
    return rep


@pytest.mark.parametrize("kind,params", [("UnitW", {}), ("Domino", {"t": 0}), ("Dieudonne", {"i": 1, "j": 1})])
def test_block_relations_r2_with_semilinearity(kind, params):
    b = make_block(kind, 2, r=2, **params)
    w = FiniteField(2, 2).gen()
    assert check_semilinearity(b.tower, 3, 5, w).ok()


class _Mutated(Tower):
    """Test helper: override operators at a single level."""

    def __init__(self, inner, swap_fv=False, zero_d_at=None, transpose_v=False):
        super().__init__(inner.p, inner.r)
        self.inner = inner
        self.swap_fv = swap_fv
        self.zero_d_at = zero_d_at
        self.transpose_v = transpose_v

    def gradings(self):
        return self.inner.gradings()

    def proj(self, i, hi, lo):
        return self.inner.proj(i, hi, lo)

    def _build(self, m, n):
        L = self.inner.level(m, n)
        V, d, F = dict(L.opV), dict(L.opd), dict(L.opF)
        if self.swap_fv:
            V, F = F, V
        if self.zero_d_at == (m, n):
            d = {i: np.zeros_like(mat) for i, mat in d.items()}
        if self.transpose_v:
            V = {i: mat.T.copy() for i, mat in V.items()}
        return Level(L.R, L.n, L.pieces, V, d, F, r=L.r)


def test_mutation_zeroed_d_fails_only_d_identities():
    u = make_block("Domino", 2, t=0)
    rep = check_relations(_Mutated(u.tower, zero_d_at=(3, 6)), 3, 6)
    assert not rep.ok()
    assert rep.identities() == ["FdV = d"]
    # gradings where d is zero anyway are not flagged
    assert all(v["grading"] == 0 for v in rep.violations)


def test_mutation_v_not_preserving_relations_reports_a_witness():
    # E_{1/2} at (3, 5) is Z/8 e_0 + Z/4 e_1; the transposed V sends the
    # relation 4 e_1 to 4 e_0, which is nonzero
    e = make_block("Dieudonne", 2, i=1, j=1)
    rep = check_relations(_Mutated(e.tower, transpose_v=True), 3, 5)
    found = [v for v in rep.violations if v["identity"] == "V well-defined"]
    assert found and all(v["witness"] is not None for v in found)
    assert found[0]["witness"]["image"] == [4, 0]


def test_mutation_swapped_fv_fails_semilinearity_only_for_twisted_field():
    # at r = 3 the twist matters (sigma != sigma^{-1}); FV = p never fails
    e3 = make_block("Dieudonne", 2, r=3, i=1, j=1)
    w = FiniteField(2, 3).gen()
    rep = check_semilinearity(_Mutated(e3.tower, swap_fv=True), 3, 5, w)
    assert not rep.ok()
    assert set(rep.identities()) <= {"Fa = sigma(a)F", "Va = sigma^-1(a)V"}
    # at r = 1 the swapped module satisfies every identity (E is F/V-symmetric)
    e1 = make_block("Dieudonne", 2, r=1, i=1, j=1)
    assert check_relations(_Mutated(e1.tower, swap_fv=True), 3, 5).ok()


def test_truncate_examples():
    # U_0 at (1, 3): three V-powers and three dV-powers survive
    L = truncate(make_block("Domino", 2, t=0), 1, 3)
    assert L.piece(0).pres.kdim() == 3
    assert L.piece(1).pres.kdim() == 3
    # W at (2, 1): Fil^1 = pW, so the quotient is W_1
    Lw = truncate(make_block("UnitW", 2), 2, 1)
    assert Lw.piece(0).pres.min_exps() == [1]
    # D(alpha_p) is k at every truncation
    for (m, n) in [(1, 1), (3, 4), (2, 7)]:
        La = truncate(make_block("DAlphaP", 5), m, n)
        assert La.piece(0).pres.min_exps() == [1]


def test_truncate_rejects_bad_levels():
    with pytest.raises(ValueError):
        truncate(make_block("UnitW", 2), 0, 3)


def test_dieudonne_requires_coprime():
    with pytest.raises(ValueError):
        make_block("Dieudonne", 2, i=2, j=2)
    with pytest.raises(ValueError):
        make_block("Dieudonne", 2, i=0, j=1)


def test_standard_filtration():
    b = make_block("Domino", 2, t=0)
    L = truncate(b, 1, 4)
    fil0 = standard_filtration(L, 0)
    assert fil0[0]["length"] == L.piece(0).pres.length()
    fil1 = standard_filtration(L, 1)
    assert fil1[0]["length"] == 3  # V k[[V]] mod Fil^4
    # Fil^1 of D(alpha_p) is zero since V = d = 0
    La = truncate(make_block("DAlphaP", 2), 2, 3)
    assert standard_filtration(La, 1)[0]["length"] == 0
    # decreasing in s, Fil^0 is everything
    lengths = [standard_filtration(L, s)[0]["length"] for s in range(5)]
    assert lengths == sorted(lengths, reverse=True)
    with pytest.raises(ValueError):
        standard_filtration(L, 9)


def test_dieudonne_truncation_exponent_pattern():
    # E_{1/2}: V^(2s) = p^s, so depth 2s cuts the free rank-2 module at p^s
    e = make_block("Dieudonne", 3, i=1, j=1)
    L = truncate(e, 3, 4)
    assert L.piece(0).pres.min_exps() == [2, 2]
    L = truncate(e, 3, 5)
    assert sorted(L.piece(0).pres.min_exps()) == [2, 3]


def test_formal_object_shifts_and_sums():
    x = FormalObject.of_blocks(2, 1, ("UnitW", 0, 0), ("UnitW", 1, -1))
    rt = FormalObject.from_json(x.to_json())
    assert [(s.i, s.j) for s in rt.summands] == [(0, 0), (1, -1)]
    assert rt.to_json() == x.to_json()


def test_formal_object_parse_errors():
    from raynaud.formal import SpecError

    with pytest.raises(SpecError):
        FormalObject.from_json("{")
    with pytest.raises(SpecError):
        FormalObject.from_json('{"p": 2}')
    with pytest.raises(SpecError):
        FormalObject.from_json('{"p": 2, "r": 1, "object": [{"block": {"kind": "Nope"}}]}')
    with pytest.raises(SpecError):
        FormalObject.from_json(
            '{"p": 2, "r": 1, "object": [{"block": {"kind": "Dieudonne", "i": 2, "j": 2}}]}'
        )


def test_stabilize_returns_the_first_agreeing_value():
    calls = []

    def value_at(k):
        calls.append(k)
        return min(k, 3)  # 1, 2, 3, 3, ...: steps 3 and 4 agree first

    assert stabilize(value_at, lambda a, b: a == b, 6, "probe") == 3
    assert calls == [1, 2, 3, 4]  # nothing is computed past the accepted step


def test_stabilize_with_one_step_raises_without_comparing():
    def same(a, b):
        raise AssertionError("one value has nothing to be compared with")

    with pytest.raises(Unstable) as info:
        stabilize(lambda k: 10 * k, same, 1, "probe")
    assert info.value.steps == 1 and info.value.last == (10,)


def test_unstable_from_stabilize_carries_what_steps_and_the_last_two_values():
    with pytest.raises(Unstable, match="probe values did not stabilize within 4 steps") as info:
        stabilize(lambda k: 2**k, lambda a, b: a == b, 4, "probe values")
    exc = info.value
    assert (exc.what, exc.steps, exc.last) == ("probe values", 4, (8, 16))
    # an identity check raises it with a message only
    plain = Unstable("operator does not vanish")
    assert str(plain) == "operator does not vanish" and plain.what is None and plain.last == ()


def test_stable_pushdown_returns_once_two_consecutive_spans_agree():
    R = ZMod(2, 3)
    base = Pres(R, 1)
    calls = []

    def gens_at(k):
        calls.append(k)
        # spans 2, 4, 4, ...: the first agreeing pair is steps 2 and 3
        return np.array([[2 ** min(k, 2)]]), R.eye(1)

    G = stable_pushdown(gens_at, base, steps=5, what="probe")
    assert calls == [1, 2, 3]
    assert present_span(G, base).min_exps() == [1]
    assert G.tolist() == [[4]]


def test_stable_pushdown_raises_unstable_naming_what():
    R = ZMod(2, 3)
    with pytest.raises(Unstable, match="probe span"):
        stable_pushdown(
            lambda k: (np.array([[2**k]]), R.eye(1)), Pres(R, 1), steps=3, what="probe span"
        )


@pytest.mark.parametrize("kind,params", [("UnitW", {}), ("Domino", {"t": 0}), ("DAlphaP", {})])
def test_eventual_kernel_matches_the_hand_written_pushdown(kind, params):
    # the eventual kernel of d as the totalization computes it, against
    # the closure that fed stable_pushdown directly before eventual_kernel
    tower = make_block(kind, 2, **params).tower
    m, n = 2, 6
    for g in tower.gradings():
        base = tower.level(m, n).piece(g).pres

        def ker_at(k):
            Lk = tower.level(m + k, n + k)
            K = kernel_into(Lk.d(g), Lk.piece(g).pres, Lk.piece(g + 1).pres)
            return K, tower.proj(g, (m + k, n + k), (m, n))

        def step(k):
            Lk = tower.level(m + k, n + k)
            P = tower.proj(g, (m + k, n + k), (m, n))
            return Lk.d(g), Lk.piece(g).pres, Lk.piece(g + 1).pres, P

        G_old = stable_pushdown(ker_at, base, steps=3, what="ker d")
        G_new = eventual_kernel(step, base, steps=3, what="ker d")
        assert present_span(G_new, base).min_exps() == present_span(G_old, base).min_exps()
        assert np.array_equal(G_new, G_old)


def _count_present_span(monkeypatch):
    calls = []
    real = linalg.present_span

    def counted(G, amb):
        calls.append(G)
        return real(G, amb)

    for module in (rmod, linalg):
        monkeypatch.setattr(module, "present_span", counted)
    return calls


def test_stable_pushdown_and_eventual_kernel_present_nothing(monkeypatch):
    calls = _count_present_span(monkeypatch)
    R = ZMod(2, 3)
    G = stable_pushdown(
        lambda k: (np.array([[2 ** min(k, 2)]]), R.eye(1)), Pres(R, 1), steps=5, what="probe"
    )
    assert G.tolist() == [[4]] and calls == []
    # an eventual kernel along a real level chain: no presentation either
    tower = make_block("Domino", 2, t=0).tower
    for g in tower.gradings():
        calls.clear()

        def step(k):
            Lk = tower.level(2 + k, 6 + k)
            P = tower.proj(g, (2 + k, 6 + k), (2, 6))
            return Lk.d(g), Lk.piece(g).pres, Lk.piece(g + 1).pres, P

        G = eventual_kernel(step, tower.level(2, 6).piece(g).pres, steps=3, what="ker d")
        assert G.shape[0] == tower.level(2, 6).piece(g).ngens and calls == []
    # a chain that never settles presents nothing
    with pytest.raises(Unstable):
        stable_pushdown(lambda k: (np.array([[2**k]]), R.eye(1)), Pres(R, 1), steps=3)
    assert calls == []


@pytest.mark.parametrize("order", ["growing", "shrinking"])
def test_stable_pushdown_factors_each_step_quotient_once(order, monkeypatch):
    # chains of distinct spans, (e_1), (e_1 | e_2), ... or the reverse:
    # a comparison may need both memberships, yet each step's quotient
    # is factored at most once although two comparisons read it
    misses = []
    real = Pres.normal_form

    def counted(self):
        if self._nf is None:
            misses.append(self)
        return real(self)

    monkeypatch.setattr(Pres, "normal_form", counted)
    R, steps = ZMod(3, 2), 5
    span = {"growing": lambda k: R.eye(steps)[:, :k], "shrinking": lambda k: R.eye(steps)[:, k:]}
    with pytest.raises(Unstable):
        stable_pushdown(lambda k: (span[order](k), R.eye(steps)), Pres(R, steps), steps)
    assert 0 < len(misses) <= steps


def _pushdown_by_both_tests(gens_at, base_piece, steps):
    """`stable_pushdown`'s acceptance before it presented only the
    accepted span: every step presented, and step k accepted when its
    min_exps equal step k - 1's and the two spans are equal.  Kept only
    as the oracle of the span-equality rule.  Returns (k, K, G), or None
    when no step is accepted."""
    R = base_piece.R
    prev = None
    for k in range(1, steps + 1):
        gens, proj = gens_at(k)
        G = R.matmul(proj, gens)
        K = present_span(G, base_piece)
        if prev is not None:
            Kp, Gp = prev
            same = _same_span((Gp, quotient_by(base_piece, Gp)), (G, quotient_by(base_piece, G)))
            if Kp.min_exps() == K.min_exps() and same:
                return k, K, G
        prev = (K, G)
    return None


def _pushdown_by_span_equality(gens_at, base_piece, steps):
    """`stable_pushdown` as (k, K, G), or None where it raises Unstable."""
    used = []

    def counted(k):
        used.append(k)
        return gens_at(k)

    try:
        G = stable_pushdown(counted, base_piece, steps=steps)
    except Unstable:
        return None
    return used[-1], present_span(G, base_piece), G


def _assert_same_acceptance(gens_at, base_piece, steps):
    got = _pushdown_by_span_equality(gens_at, base_piece, steps)
    want = _pushdown_by_both_tests(gens_at, base_piece, steps)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert got[1].rels.tobytes() == want[1].rels.tobytes()
        assert got[2].tobytes() == want[2].tobytes()
    return got


def test_span_equality_accepts_where_both_tests_accepted():
    R = ZMod(2, 3)
    base = Pres(R, 2)
    e1, e2 = np.array([[1], [0]]), np.array([[0], [1]])
    # min_exps agree at every step ([3]) but the spans differ until step 3
    chain = {1: e1, 2: e2}
    got = _assert_same_acceptance(lambda k: (chain.get(k, e2), R.eye(2)), base, 4)
    assert got[0] == 3
    # min_exps disagree ([2] then [1]) until the span settles at step 3
    chain = {1: 2 * e1}
    got = _assert_same_acceptance(lambda k: (chain.get(k, 4 * e1), R.eye(2)), base, 4)
    assert got[0] == 3


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_span_equality_accepts_where_both_tests_accept_on_random_chains(data):
    # chains drawn from a pool of two or three spans, so that consecutive
    # spans are often equal, inside a base piece with random relations
    R = ZMod(data.draw(st.sampled_from([2, 3])), data.draw(st.integers(1, 3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def matrix(rows, cols):
        vals = R.p ** rng.integers(0, R.m + 1, size=(rows, cols))
        return (vals * rng.integers(0, R.q, size=(rows, cols))) % R.q

    ngens = data.draw(st.integers(1, 3))
    base = Pres(R, ngens, matrix(ngens, data.draw(st.integers(0, 2))))
    pool = [matrix(ngens, data.draw(st.integers(0, 3))) for _ in range(data.draw(st.integers(2, 3)))]
    steps = data.draw(st.integers(2, 5))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=steps, max_size=steps))
    _assert_same_acceptance(lambda k: (pool[picks[k - 1]], R.eye(ngens)), base, steps)
