"""Correctness gates for the benchmark's instances.

Each checker takes the outputs of one instance and returns None when they
are right, or a one-line reason when they are not.  `gated` runs one
instance under a checker and turns a wrong answer, an `Unstable` or any
other exception into a counted failure instead of an abort.

This module imports nothing from the package, so its tests run without it.
"""

from __future__ import annotations

import json

# h_W of the counterexample in total degree <= 3, as the paper states it.
PAPER_GRID = {"0,0": 1, "0,3": 1, "1,1": 1, "1,2": -2, "2,1": 1}


def check_report(exit_code: int, stdout: str):
    """`raynaud report` exits 0, passes its own checks and prints the paper grid."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if report.get("all_checks_pass") is not True:
        return "all_checks_pass is not true"
    if report.get("hW") != PAPER_GRID:
        return f"hW {report.get('hW')} != paper grid {PAPER_GRID}"
    return None


def check_derived_star(result: dict):
    """E_{1/2} * D(alpha_p) has H^-1 = U_-1 and H^0 = U_1."""
    got = (result["H-1"].get("identified"), result["H0"].get("identified"))
    if got != ("U_-1", "U_1"):
        return f"(H^-1, H^0) identified as {got}, expected ('U_-1', 'U_1')"
    return None


def check_star_oracle(presented: dict, closed_form: dict):
    """Per-grading min_exps of the presentation equal those of the closed form."""
    if presented != closed_form:
        return f"presentation {presented} != closed form {closed_form}"
    return None


def check_crew(columns: dict):
    """Crew's identity holds on every column; `columns` maps i -> passed."""
    if not columns:
        return "no columns were checked"
    bad = sorted(i for i, passed in columns.items() if not passed)
    if bad:
        return f"Crew fails at columns {bad}"
    return None


def gated(run, check):
    """Run one instance and check it: returns (output, None) or (None, reason)."""
    try:
        out = run()
        reason = check(out)
    except Exception as exc:  # counted per instance, never aborts the workload
        return None, f"{type(exc).__name__}: {exc}"
    return (out, None) if reason is None else (None, reason)
