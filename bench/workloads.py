"""The benchmark workloads: instances made from a seed, and their gates.

A workload is a list of instances.  `make_instances(name, seed)` builds it
(this is set-up time); each instance is a tuple (label, run, check, info):
`run()` calls the package's public API the way a user does,
`check(output)` is one of the gates in `checks`, and `info(output)` gives
a small JSON-able summary for the run's record.

`report` and `star_oracle` are the workloads of BENCHMARK.json;
`derived_star` and `invariants_random` run the same way by hand (see
README.md for why they are not in it).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

from raynaud import cli
from raynaud.balphap import PipelineConfig
from raynaud.blocks import make_block
from raynaud.formal import FormalObject, Summand
from raynaud.invariants import InvariantConfig, crew_check, hodge_witt_numbers
from raynaud.star import derived_star, star_frobenius_bijective, star_presentation

import checks

REPORT_PRIMES = (2, 3, 5)
DERIVED_STAR_GRID = [(m, n) for m in (2, 3) for n in (4, 6, 8, 10, 12)]
STAR_ORACLE_PAIRS = [
    (("Domino", {"t": -1}), ("UnitW", {})),
    (("Domino", {"t": 0}), ("ResidueK", {})),
    (("Dieudonne", {"i": 1, "j": 1}), ("ResidueK", {})),
]
STAR_LEVEL = (3, 8)

# the generator of acceptance criterion 04: 54 objects of 1-4 shifted blocks
RANDOM_KINDS = [
    ("UnitW", {}),
    ("ResidueK", {}),
    ("DAlphaP", {}),
    ("Domino", {"t": -2}),
    ("Domino", {"t": -1}),
    ("Domino", {"t": 0}),
    ("Domino", {"t": 1}),
    ("Domino", {"t": 2}),
    ("Dieudonne", {"i": 1, "j": 1}),
    ("Dieudonne", {"i": 2, "j": 1}),
    ("Dieudonne", {"i": 1, "j": 2}),
]
RANDOM_OBJECTS = 54
RANDOM_CONFIG = InvariantConfig(3, 8, 3)


def _report_instance(p):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["report", "--p", str(p)])
        return code, buf.getvalue()

    def check(out):
        return checks.check_report(*out)

    def info(out):
        stamp = json.loads(out[1])["truncation"]
        # the level the cells were actually computed at, next to the stamp
        computed = PipelineConfig(p=p, m=stamp["m"], n=stamp["n"]).cell_level()
        return {"truncation": stamp, "cell_level": list(computed)}

    return f"report p={p}", run, check, info


def _derived_star_instance(e, d, m, n):
    def run():
        return derived_star(e, d, m, n)

    def info(res):
        return {"H-1": res["H-1"]["identified"], "H0": res["H0"]["identified"]}

    return f"derived_star m={m} n={n}", run, checks.check_derived_star, info


def _exps_by_grading(tower, m, n):
    L = tower.level(m, n)
    out = {}
    for g in L.gradings():
        exps = L.piece(g).pres.min_exps()
        if exps:
            out[g] = exps
    return out


def _star_oracle_instance(M, N):
    m, n = STAR_LEVEL

    def run():
        closed = _exps_by_grading(star_frobenius_bijective(M, N), m, n)
        pres, _ = star_presentation(M, N, m, n)
        return _exps_by_grading(pres, m, n), closed

    def check(out):
        return checks.check_star_oracle(*out)

    def info(out):
        return {"min_exps": {str(g): e for g, e in out[0].items()}}

    return f"star {M.label()} * {N.label()}", run, check, info


def _invariants_instance(k, X):
    def run():
        table = hodge_witt_numbers(X, RANDOM_CONFIG)
        cols = sorted({i for (i, _) in set(table.h) | set(table.hW)})
        return {i: crew_check(X, i, RANDOM_CONFIG).passed for i in cols}

    def info(cols):
        return {"columns": len(cols)}

    return f"object {k} {X!r}", run, checks.check_crew, info


def random_objects(seed):
    rng = np.random.default_rng(seed)
    objects = []
    for k in range(RANDOM_OBJECTS):
        p = (2, 3, 5)[k % 3]
        summands = []
        for _ in range(int(rng.integers(1, 5))):
            kind, params = RANDOM_KINDS[int(rng.integers(len(RANDOM_KINDS)))]
            i, j = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            summands.append(Summand(make_block(kind, p, **params), i, j))
        objects.append(FormalObject(p, 1, summands))
    return objects


def make_instances(name, seed):
    """The instance list of one workload, made from `seed`.

    `invariants_random` draws its objects from the seed.  The other
    workloads are the paper's fixed computations, so the seed only orders
    them: a cold process computes each memoized level or block once, so
    the order moves cost between instances, not the total, and every
    order must pass the same gates.
    """
    if name == "invariants_random":
        return [_invariants_instance(k, X) for k, X in enumerate(random_objects(seed))]
    if name == "report":
        instances = [_report_instance(p) for p in REPORT_PRIMES]
    elif name == "derived_star":
        e = make_block("Dieudonne", 2, i=1, j=1)
        d = make_block("DAlphaP", 2)
        instances = [_derived_star_instance(e, d, m, n) for m, n in DERIVED_STAR_GRID]
    elif name == "star_oracle":
        instances = [
            _star_oracle_instance(make_block(a, 2, **pa), make_block(b, 2, **pb))
            for (a, pa), (b, pb) in STAR_ORACLE_PAIRS
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(instances)
    return instances
