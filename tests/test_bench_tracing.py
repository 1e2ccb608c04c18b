"""The benchmark's tracer must find every package function it wraps.

`bench/tracing.py` wraps functions by name from outside the package, so
renaming one breaks the traced benchmark run, and so does changing the
calls its isomorphism counters read.  Installing the wrappers patches
the package for the rest of the process, so this runs them in a
subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "bench")
import tracing

tr = tracing.Tracer()
tracing.install(tr)
from raynaud.blocks import make_block
from raynaud.formal import FormalObject, Summand
from raynaud.invariants import InvariantConfig, hodge_witt_numbers

X = FormalObject(2, 1, [Summand(make_block("Domino", 2, t=0), 0, 0)])
hodge_witt_numbers(X, InvariantConfig(2, 4))
assert tr.counts["pushdown.steps_used"] > 0, "stable_pushdown was not traced"

from raynaud.homs import identify_block

cands = [(f"U_{t}", make_block("Domino", 2, t=t).tower) for t in (-1, 0)]
assert identify_block(make_block("Domino", 2, t=0).tower, cands, 2, 5)[0] == "U_0"
assert tr.counts["iso.found"] == 1, "find_isomorphism was not traced"
names = {sid: name for sid, name, *_ in tr.spans}
parents = [names.get(s[4]) for s in tr.spans if s[1] == "homs.is_isomorphism_at"]
assert parents and set(parents) == {"homs.find_isomorphism"}, parents
"""


def test_tracer_installs_and_runs_on_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
