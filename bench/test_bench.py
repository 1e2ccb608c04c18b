"""The benchmark's correctness gates count corrupted results as failures."""

import json

import checks
from raynaud.rmod import Unstable

GOOD_REPORT = json.dumps({"all_checks_pass": True, "hW": dict(checks.PAPER_GRID)})


def count_failure(output, check):
    out, reason = checks.gated(lambda: output, check)
    return out is None and reason is not None


def test_report_gate():
    check = lambda out: checks.check_report(*out)  # noqa: E731
    assert not count_failure((0, GOOD_REPORT), check)
    wrong_grid = json.dumps({"all_checks_pass": True, "hW": {**checks.PAPER_GRID, "1,2": -1}})
    assert count_failure((0, wrong_grid), check)
    assert count_failure((1, GOOD_REPORT), check)
    assert count_failure((0, GOOD_REPORT.replace("true", "false")), check)
    assert count_failure((0, "not json"), check)


def test_derived_star_gate():
    good = {"H-1": {"identified": "U_-1"}, "H0": {"identified": "U_1"}}
    assert not count_failure(good, checks.check_derived_star)
    assert count_failure({**good, "H0": {"identified": "U_0"}}, checks.check_derived_star)
    assert count_failure({**good, "H-1": {"identified": None}}, checks.check_derived_star)


def test_star_oracle_gate():
    check = lambda out: checks.check_star_oracle(*out)  # noqa: E731
    exps = {0: [1, 3], 1: [2]}
    assert not count_failure((exps, dict(exps)), check)
    assert count_failure((exps, {0: [1, 3], 1: [3]}), check)
    assert count_failure((exps, {0: [1, 3]}), check)


def test_crew_gate():
    assert not count_failure({0: True, 1: True}, checks.check_crew)
    assert count_failure({0: True, 1: False}, checks.check_crew)
    assert count_failure({}, checks.check_crew)


def test_exceptions_count_as_failures():
    for exc in (Unstable("did not stabilize"), ZeroDivisionError("not a unit")):

        def run():
            raise exc

        out, reason = checks.gated(run, checks.check_derived_star)
        assert out is None and reason.startswith(type(exc).__name__)
