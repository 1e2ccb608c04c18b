"""The named building blocks and their truncation towers.

Kinds:

* ``UnitW``      -- W(k) in grading 0, F and V the Witt operators, d = 0:
                    the block ``Dieudonne(1, 0)`` under the label W.
* ``ResidueK``   -- k with bijective Frobenius, V = 0, d = 0.
* ``DAlphaP``    -- k with F = V = d = 0 (the Dieudonne module of alpha_p).
* ``Domino(t)``  -- the elementary domino U_t on gradings 0, 1:
                    k_sigma[[V]] in grading 0 and prod_{j >= t} k dV^j in
                    grading 1, with F(sum a_j dV^j) = sum a_{j+1}^sigma dV^j.
* ``Dieudonne(i, j)`` -- the height i+j module with F f_s = f_{s+1},
                    F e_t = p e_{t-1}, V e_t = e_{t+1}, V f_s = p f_{s-1}
                    and the gluing f_0 = e_0, e_j = f_i; slopes j/(i+j).
* ``FiniteLength`` -- an explicit finite model supplied by the caller.

At r > 1 every generator label of a tower expands into r coordinates.
Each block carries its tower and the V-depth its invariants need to
stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .linalg import Pres, ZMod
from .rmod import Level, LevelPiece, ModelTower, Tower, fil_gens, mat_pow_mod
from .witt import GaloisRing


def _sigma_blocks(p, r, m):
    """(sigma, sigma^{-1}) as r x r integer matrices over Z/p^m."""
    if r == 1:
        one = np.array([[1]], dtype=np.int64)
        return one, one
    gr = GaloisRing(p, r, m)
    return gr.sigma_matrix(), gr.sigma_matrix(inverse=True)


class ResidueKTower(Tower):
    def gradings(self):
        return [0]

    def _build(self, m, n):
        R = ZMod(self.p, m)
        sig, _ = _sigma_blocks(self.p, self.r, m)
        rels = (self.p * R.eye(self.r)) % R.q
        pieces = {0: LevelPiece([("k", c) for c in range(self.r)], Pres(R, self.r, rels))}
        return Level(R, n, pieces, {}, {}, {0: sig % R.q}, r=self.r)


class DAlphaPTower(Tower):
    def gradings(self):
        return [0]

    def _build(self, m, n):
        R = ZMod(self.p, m)
        rels = (self.p * R.eye(self.r)) % R.q
        pieces = {0: LevelPiece([("a", c) for c in range(self.r)], Pres(R, self.r, rels))}
        return Level(R, n, pieces, {}, {}, {}, r=self.r)


class DominoTower(Tower):
    def __init__(self, p, t, r=1):
        super().__init__(p, r)
        self.t = t

    def gradings(self):
        return [0, 1]

    def _build(self, m, n):
        R = ZMod(self.p, m)
        t = self.t
        sig, sig_inv = _sigma_blocks(self.p, self.r, m)
        v_idx = list(range(n))
        u_idx = list(range(t, n))
        nv, nu = len(v_idx), len(u_idx)
        upos = {j: a for a, j in enumerate(u_idx)}

        V0 = np.zeros((nv, nv), dtype=np.int64)
        for j in range(n - 1):
            V0[j + 1, j] = 1
        d0 = np.zeros((nu, nv), dtype=np.int64)
        for j in range(max(0, t), n):
            d0[upos[j], j] = 1
        F1 = np.zeros((nu, nu), dtype=np.int64)
        for j in range(t + 1, n):
            F1[upos[j - 1], upos[j]] = 1

        pieces = {
            0: LevelPiece(
                [("v", j, c) for j in v_idx for c in range(self.r)],
                Pres(R, nv * self.r, (self.p * R.eye(nv * self.r)) % R.q),
            ),
            1: LevelPiece(
                [("u", j, c) for j in u_idx for c in range(self.r)],
                Pres(R, nu * self.r, (self.p * R.eye(nu * self.r)) % R.q),
            ),
        }
        V = {0: R.kron(V0, sig_inv)}
        d = {0: R.kron(d0, R.eye(self.r))}
        F = {1: R.kron(F1, sig)}
        return Level(R, n, pieces, V, d, F, r=self.r)


class DieudonneTower(Tower):
    def __init__(self, p, i, j, r=1):
        super().__init__(p, r)
        if i < 1 or j < 0 or gcd(i, j) != 1:
            raise ValueError("Dieudonne block needs coprime (i, j) with i >= 1, j >= 0")
        self.i = i
        self.j = j

    def gradings(self):
        return [0]

    def conceptual_ops(self, q):
        """F and V on the basis [e_0, .., e_{j-1}, f_1, .., f_i] mod q."""
        i, j, p = self.i, self.j, self.p
        h = i + j
        F = np.zeros((h, h), dtype=np.int64)
        V = np.zeros((h, h), dtype=np.int64)

        def e(t):
            return t  # 0 <= t <= j-1

        def f(s):
            return j + s - 1  # 1 <= s <= i

        if j == 0:
            # forced (i, j) = (1, 0): the unit block W.  The general rule
            # below would write F[e(-1), f(1)] = p over F[0, 0] = 1
            F[0, 0] = 1
            V[0, 0] = p % q
            return F, V
        # F: e_0 -> f_1, e_t -> p e_{t-1}, f_s -> f_{s+1}, f_i -> p e_{j-1}
        F[f(1), e(0)] = 1
        for t in range(1, j):
            F[e(t - 1), e(t)] = p
        for s in range(1, i):
            F[f(s + 1), f(s)] = 1
        F[e(j - 1), f(i)] = p
        # V: e_t -> e_{t+1}, e_{j-1} -> f_i, f_s -> p f_{s-1}, f_1 -> p e_0
        for t in range(j - 1):
            V[e(t + 1), e(t)] = 1
        V[f(i), e(j - 1)] = 1
        for s in range(2, i + 1):
            V[f(s - 1), f(s)] = p
        V[e(0), f(1)] = p
        return F % q, V % q

    def _build(self, m, n):
        R = ZMod(self.p, m)
        sig, sig_inv = _sigma_blocks(self.p, self.r, m)
        Fc, Vc = self.conceptual_ops(R.q)
        Fm = R.kron(Fc, sig)
        Vm = R.kron(Vc, sig_inv)
        h = (self.i + self.j) * self.r
        rels = mat_pow_mod(Vm, n, R)
        labels = [("b", s, c) for s in range(self.i + self.j) for c in range(self.r)]
        pieces = {0: LevelPiece(labels, Pres(R, h, rels))}
        return Level(R, n, pieces, {0: Vm}, {}, {0: Fm}, r=self.r)


class FiniteLengthTower(Tower):
    """Explicit model supplied as a Level whose filtration terminates.

    Requires Fil^(model.n) = 0, so truncation at any n >= model.n is the
    model itself and all levels clamp to the declared depth.
    """

    def __init__(self, model: Level, p, r=1):
        super().__init__(p, r)
        fil = fil_gens(model, model.n)
        for i in model.gradings():
            if not model.piece(i).pres.element_is_zero(fil[i]):
                raise ValueError("FiniteLength model must satisfy Fil^depth = 0")
        self._inner = ModelTower(model, p, r=r, depth_margin=0)
        self.depth = model.n

    def gradings(self):
        return self._inner.gradings()

    def _build(self, m, n):
        return self._inner.level(m, min(n, self.depth))


@dataclass
class BlockModule:
    """A named block with its tower and stabilization depth."""

    kind: str
    params: dict
    p: int
    r: int
    tower: Tower
    stabilization: int = 2

    def label(self):
        if self.kind == "Domino":
            return f"U_{self.params['t']}"
        if self.kind == "Dieudonne":
            i, j = self.params["i"], self.params["j"]
            return f"E_{j}/{i + j}"
        return {"UnitW": "W", "ResidueK": "k", "DAlphaP": "D(alpha_p)"}.get(self.kind, self.kind)

    def __repr__(self):
        return f"<Block {self.label()} p={self.p} r={self.r}>"


_BLOCK_INSTANCES = {}
_BLOCK_KEYS = {"UnitW": (), "ResidueK": (), "DAlphaP": (), "Domino": ("t",)}
_BLOCK_KEYS.update(Dieudonne=("i", "j"), FiniteLength=("model", "stabilization"))


def require_int(name, value) -> int:
    """value if it is an int; a bool, float or str is refused (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def make_block(kind: str, p: int, r: int = 1, **params) -> BlockModule:
    """Blocks are cached per (kind, params, p, r) so their towers share
    level caches across the whole session (FiniteLength excepted).  A
    parameter the kind does not read, a non-integer (or bool) t, i or j,
    and a FiniteLength model that is not a Level are refused (ValueError)."""
    unread = sorted(set(params).difference(_BLOCK_KEYS.get(kind, params)))
    if unread:
        raise ValueError(f"{kind} does not read {', '.join(unread)}")
    for key in ("t", "i", "j"):
        require_int(key, params.get(key, 0))
    if kind == "FiniteLength" and not isinstance(params.get("model"), Level):
        raise ValueError("model must be a Level")
    if kind != "FiniteLength":
        key = (kind, tuple(sorted(params.items())), p, r)
        if key not in _BLOCK_INSTANCES:
            _BLOCK_INSTANCES[key] = _make_block(kind, p, r, **params)
        return _BLOCK_INSTANCES[key]
    return _make_block(kind, p, r, **params)


def _make_block(kind: str, p: int, r: int = 1, **params) -> BlockModule:
    if kind == "UnitW":
        return BlockModule(kind, {}, p, r, DieudonneTower(p, 1, 0, r))
    if kind == "ResidueK":
        return BlockModule(kind, {}, p, r, ResidueKTower(p, r))
    if kind == "DAlphaP":
        return BlockModule(kind, {}, p, r, DAlphaPTower(p, r))
    if kind == "Domino":
        t = params["t"]
        return BlockModule(kind, {"t": t}, p, r, DominoTower(p, t, r), stabilization=abs(t) + 3)
    if kind == "Dieudonne":
        i, j = params["i"], params["j"]
        tower = DieudonneTower(p, i, j, r)  # validates coprimality
        return BlockModule(kind, {"i": i, "j": j}, p, r, tower, stabilization=i + j + 1)
    if kind == "FiniteLength":
        model = params["model"]
        stabilization = params.get("stabilization", max(3, model.n))
        tower = FiniteLengthTower(model, p, r)
        return BlockModule(kind, {}, p, r, tower, stabilization)
    raise ValueError(f"unknown block kind {kind!r}")


def truncate(block: BlockModule, m: int, n: int) -> Level:
    """The finite stage of the block at coefficient precision m, depth n."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return block.tower.level(m, n)
