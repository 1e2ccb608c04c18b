"""CLI surface: subcommands, exit codes, deterministic JSON."""

import json
import subprocess
import sys

import numpy as np
import pytest

from raynaud import blocks
from raynaud.cli import main

U0_SPEC = '{"p": 2, "r": 1, "object": [{"block": {"kind": "Domino", "t": 0}, "shift": [0, 0]}]}'
E12_SPEC = '{"p": 2, "r": 1, "object": [{"block": {"kind": "Dieudonne", "i": 1, "j": 1}, "shift": [0, 0]}]}'
DAP_SPEC = '{"p": 2, "r": 1, "object": [{"block": {"kind": "DAlphaP"}, "shift": [0, 0]}]}'
W_SPEC = '{"p": 2, "r": 1, "object": [{"block": {"kind": "UnitW"}, "shift": [0, 0]}]}'
E23_P7_SPEC = '{"p": 7, "r": 1, "object": [{"block": {"kind": "Dieudonne", "i": 1, "j": 2}, "shift": [0, 0]}]}'
DAP_P7_SPEC = '{"p": 7, "r": 1, "object": [{"block": {"kind": "DAlphaP"}, "shift": [0, 0]}]}'
P4_SPEC = json.dumps(
    {
        "p": 2,
        "r": 1,
        "object": [
            {"block": {"kind": "UnitW"}, "shift": [-i, -i]} for i in range(5)
        ],
    }
)


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, text in [
        ("u0", U0_SPEC),
        ("e12", E12_SPEC),
        ("dap", DAP_SPEC),
        ("w", W_SPEC),
        ("p4", P4_SPEC),
        ("e23_7", E23_P7_SPEC),
        ("dap_7", DAP_P7_SPEC),
    ]:
        f = tmp_path / f"{name}.json"
        f.write_text(text)
        paths[name] = str(f)
    return paths


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_invariants_u0(specs, capsys):
    code, out, err = run_cli(["invariants", specs["u0"]], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["T"] == {"0,0": 1}
    assert data["hW"]["0,0"] == 1
    assert data["hW"]["1,-1"] == -2


def test_invariants_stamps_the_v_depth_it_computed_at(specs, capsys):
    # U_0 stabilizes at depth 3, so every block computes at V-depth 5 at
    # least; a shallower --vdepth is stamped, and the level used beside it
    code, out, _ = run_cli(["invariants", specs["u0"], "--vdepth", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == {"m": 3, "n": 1}
    assert data["effective_level"] == {"m": 3, "n": 5}
    code, deep, _ = run_cli(["invariants", specs["u0"], "--vdepth", "5"], capsys)
    assert code == 0
    deep = json.loads(deep)
    assert "effective_level" not in deep and deep["truncation"] == {"m": 3, "n": 5}
    for key in ("effective_level", "truncation"):
        data.pop(key)
    deep.pop("truncation")
    assert data == deep


@pytest.mark.parametrize(
    "name, precision, level", [("e12", "4", {"m": 4, "n": 10}), ("w", "1", {"m": 2, "n": 8})]
)
def test_invariants_stamps_each_routes_base_level(name, precision, level, specs, capsys):
    # E_{1/2}'s slopes need V-depth m (i + j) + 2; the Hodge numbers are
    # computed at precision 2 at least
    code, out, _ = run_cli(["invariants", specs[name], "--precision", precision], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == {"m": int(precision), "n": 8}
    assert data["effective_level"] == level


def test_invariants_markdown_grid(specs, capsys):
    code, out, err = run_cli(["invariants", specs["p4"], "--format", "md"], capsys)
    assert code == 0
    assert "j\\i" in out


def test_invariants_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run_cli(["invariants", str(bad)], capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(["invariants", str(missing)], capsys)
    assert code == 2


@pytest.mark.parametrize("name,precision", [("e23_7", "8"), ("dap_7", "9")])
def test_invariants_past_the_int64_precision_exit_2(name, precision, specs, capsys):
    # stabilizing these needs precision 12 at p = 7, and (7^12)^2 >= 2^62
    code, out, err = run_cli(
        ["invariants", specs[name], "--precision", precision, "--vdepth", "8"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "spec error: precision 12 at p = 7 exceeds 11, the int64 limit"
        f" (requested --precision {precision})"
    ]


@pytest.mark.parametrize(
    "p, r, precision, working",
    [(7, 2, "5", 12), (7, 3, "4", 12), (7, 4, "3", 12), (5, 3, "4", 14)],
)
def test_r_fold_slope_precision_past_the_int64_limit_exit_2(
    p, r, precision, working, tmp_path, capsys
):
    # slopes at r > 1 are computed at precision m r, stabilized two above
    spec = tmp_path / "e12.json"
    block = {"kind": "Dieudonne", "i": 1, "j": 1}
    spec.write_text(json.dumps({"p": p, "r": r, "object": [{"block": block}]}))
    code, out, err = run_cli(["invariants", str(spec), "--precision", precision], capsys)
    assert code == 2 and out == ""
    top = {5: 13, 7: 11}[p]
    assert err.splitlines() == [
        f"spec error: precision {working} at p = {p} exceeds {top}, the int64 limit"
        f" (requested --precision {precision} at r = {r})"
    ]


def test_invariants_at_p_7_multiply_past_the_int64_bound_exactly(specs, capsys, monkeypatch):
    from raynaud import invariants
    from raynaud.linalg import ZMod

    # at precision 7 some products have k * (q - 1)^2 >= 2^63 and run
    # over Python ints; the table is the one at precision 4
    past = []
    matmul = ZMod.matmul

    def spy(R, A, B):
        past.append(np.shape(A)[-1] * (R.q - 1) ** 2 >= 2**63)
        return matmul(R, A, B)

    runs = {}
    for m in ("4", "7"):
        monkeypatch.setattr(ZMod, "matmul", spy)
        monkeypatch.setattr(invariants, "_BLOCK_CACHE", {})
        code, out, err = run_cli(["invariants", specs["e23_7"], "--precision", m], capsys)
        assert code == 0
        runs[m] = json.loads(out)
        assert runs[m].pop("truncation") == {"m": int(m), "n": 8}
        runs[m].pop("effective_level")  # the slope depth grows with m
        assert any(past) == (m == "7")
        past.clear()
    assert runs["7"] == runs["4"]


def test_invariants_param_mismatch(specs, capsys):
    code, out, err = run_cli(["invariants", specs["u0"], "--p", "3"], capsys)
    assert code == 2


def test_unread_block_key_exits_2_and_caches_no_block(tmp_path, capsys):
    spec = tmp_path / "typo.json"
    spec.write_text('{"p": 2, "object": [{"block": {"kind": "UnitW", "t": 5, "typo": 1}}]}')
    cached = len(blocks._BLOCK_INSTANCES)
    code, out, err = run_cli(["invariants", str(spec)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["spec error: bad block 'UnitW': UnitW does not read t, typo"]
    assert len(blocks._BLOCK_INSTANCES) == cached
    # FiniteLength reads model and stabilization only
    with pytest.raises(ValueError, match="FiniteLength does not read dominoes"):
        blocks.make_block("FiniteLength", 2, model=None, dominoes={})


@pytest.mark.parametrize(
    "r, block, why",
    [
        (1, {"kind": "Domino", "t": "x"}, "t must be an integer, got 'x'"),
        (1, {"kind": "Domino", "t": 1.5}, "t must be an integer, got 1.5"),
        (1, {"kind": "Domino", "t": True}, "t must be an integer, got True"),
        (1, {"kind": "Dieudonne", "i": 1, "j": 1.0}, "j must be an integer, got 1.0"),
        (1, {"kind": "FiniteLength", "model": {}}, "model must be a Level"),
        (0, {"kind": "UnitW"}, "r is limited to 1..4"),
        (-1, {"kind": "UnitW"}, "r is limited to 1..4"),
    ],
)
def test_malformed_block_spec_exits_2_with_one_line(r, block, why, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"p": 2, "r": r, "object": [{"block": block}]}))
    cached = len(blocks._BLOCK_INSTANCES)
    code, out, err = run_cli(["invariants", str(spec)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.rstrip().endswith(why)
    if r == 1:
        assert len(blocks._BLOCK_INSTANCES) == cached


@pytest.mark.parametrize(
    "fields, shift, why",
    [
        ({"p": 2}, [1.5, 0], "shift must be an integer, got 1.5"),
        ({"p": 2}, [0, "1"], "shift must be an integer, got '1'"),
        ({"p": 2.9, "r": 1.5}, [0, 0], "p must be an integer, got 2.9"),
        ({"p": 2, "r": 1.5}, [0, 0], "r must be an integer, got 1.5"),
        ({"p": "2"}, [0, 0], "p must be an integer, got '2'"),
        ({"p": True}, [0, 0], "p must be an integer, got True"),
    ],
)
def test_non_integer_spec_number_exits_2_with_one_line(fields, shift, why, tmp_path, capsys):
    # p, r and the shifts follow make_block's rule for t, i and j: no
    # bool, float or str is truncated into an integer
    spec = tmp_path / "bad.json"
    block = {"kind": "Domino", "t": 0}
    spec.write_text(json.dumps({**fields, "object": [{"block": block, "shift": shift}]}))
    code, out, err = run_cli(["invariants", str(spec)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.rstrip().endswith(why)


def test_star_unit(specs, capsys):
    code, out, err = run_cli(
        ["star", specs["w"], specs["u0"], "--precision", "2", "--vdepth", "5"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["gradings"]["0"]["exps"] == [1] * 5
    assert data["gradings"]["1"]["exps"] == [1] * 5


def test_star_closed_form_flag(specs, capsys):
    code, out, err = run_cli(
        ["star", specs["e12"], specs["dap"], "--closed-form"], capsys
    )
    assert code == 1
    assert "closed form inapplicable" in err


def test_star_derived(specs, capsys):
    code, out, err = run_cli(
        ["star", specs["e12"], specs["dap"], "--derived", "--precision", "2", "--vdepth", "6"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["H-1"] == "U_-1"
    assert data["H0"] == "U_1"


def test_star_derived_reports_an_exhausted_search(specs, capsys, monkeypatch):
    import raynaud.homs

    # every candidate map is rejected, so no identification is decided
    monkeypatch.setattr(raynaud.homs, "is_isomorphism_at", lambda *args: False)
    code, out, err = run_cli(
        ["star", specs["e12"], specs["dap"], "--derived", "--precision", "2", "--vdepth", "6"],
        capsys,
    )
    assert code == 1
    data = json.loads(out)
    assert data["H-1"] == "search exhausted"
    assert data["H0"] == "search exhausted"


def test_report_does_not_import_numpy_random():
    # a fresh interpreter, so nothing the test session imported counts
    code = (
        "import contextlib, io, sys\n"
        "from raynaud.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['report', '--p', '2']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_star_derived_requires_height_block(specs, capsys):
    code, out, err = run_cli(["star", specs["w"], specs["dap"], "--derived"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "first, flags",
    [({"kind": "UnitW"}, []), ({"kind": "Dieudonne", "i": 1, "j": 1}, ["--derived"])],
)
def test_star_at_r_above_1_exits_2_before_computing(first, flags, tmp_path, capsys, monkeypatch):
    from raynaud import cli

    def refuse(*args, **kwargs):
        raise AssertionError("computed before refusing")

    for name in ("derived_star", "star_frobenius_bijective", "star_presentation"):
        monkeypatch.setattr(cli, name, refuse)
    paths = []
    for name, block in (("a", first), ("b", {"kind": "Domino", "t": 0})):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"p": 2, "r": 2, "object": [{"block": block}]}))
        paths.append(str(spec))
    code, out, err = run_cli(["star", *paths, *flags], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["spec error: star is implemented for r = 1, got r = 2"]


def test_report_default(capsys):
    code, out, err = run_cli(["report", "--precision", "4", "--vdepth", "8"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["hW"]["1,2"] == -2
    assert data["truncation"] == {"m": 4, "n": 8, "p": 2}


def test_report_split_watermarked(capsys):
    code, out, err = run_cli(
        ["report", "--mode", "split", "--precision", "4", "--vdepth", "8"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["watermark"] == "counterfactual"


def test_report_degree_bound_refused(capsys):
    code, out, err = run_cli(["report", "--degree-bound", "5"], capsys)
    assert code == 1
    assert "not certified" in err


def test_report_markdown(capsys):
    code, out, err = run_cli(
        ["report", "--format", "md", "--precision", "4", "--vdepth", "8"], capsys
    )
    assert code == 0
    assert "h_W grid" in out


def test_report_byte_identical(capsys):
    code1, out1, _ = run_cli(["report", "--precision", "4", "--vdepth", "8"], capsys)
    code2, out2, _ = run_cli(["report", "--precision", "4", "--vdepth", "8"], capsys)
    assert out1 == out2


def test_check_p4(specs, capsys):
    code, out, err = run_cli(["check", specs["p4"], "--pure-dimension", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert all(v["pass"] for v in data["crew"].values())
    assert data["ekedahl"]["pass"]
    assert data["symmetry"]["pass"]
    assert data["mazur_ogus"]["pass"]
    assert all(v["pass"] for v in data["newton_hodge"].values())


def test_check_non_mazur_ogus_object_still_exits_zero(specs, capsys):
    # torsion breaks Mazur-Ogus, which is data, not a defect
    code, out, err = run_cli(["check", specs["dap"]], capsys)
    assert code == 0
    data = json.loads(out)
    assert not data["mazur_ogus"]["pass"]
    assert all(v["pass"] for v in data["crew"].values())


def test_check_prints_exact_crew_sums_on_negative_j_columns(tmp_path, capsys):
    # columns 0 and 1 of E_{1/3} + U_1(1)[-1] at p = 3 hold j < 0 cells,
    # where a float sign (-1) ** j would print "0.0" and "-2.0"
    spec = tmp_path / "mixed.json"
    spec.write_text(
        json.dumps(
            {
                "p": 3,
                "object": [
                    {"block": {"kind": "Dieudonne", "i": 2, "j": 1}, "shift": [0, 0]},
                    {"block": {"kind": "Domino", "t": 1}, "shift": [1, -1]},
                ],
            }
        )
    )
    code, out, err = run_cli(["check", str(spec)], capsys)
    assert code == 0
    crew = json.loads(out)["crew"]
    assert crew["0"] == {"hW_sum": "0", "h_sum": "0", "pass": True}
    assert crew["1"] == {"hW_sum": "-2", "h_sum": "-2", "pass": True}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "raynaud.cli", "report", "--degree-bound", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "args",
    [
        ["report", "--p", "4"],
        ["report", "--p", "1"],
        ["report", "--precision", "0"],
        ["report", "--vdepth", "0"],
        ["report", "--degree-bound", "-1"],
    ],
)
def test_report_out_of_range_numbers_exit_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("spec error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["invariants", "check", "star"])
@pytest.mark.parametrize("flag", ["--precision", "--vdepth"])
def test_spec_commands_refuse_zero_truncation(command, flag, specs, capsys):
    args = [command, specs["u0"]] + ([specs["w"]] if command == "star" else [])
    code, out, err = run_cli(args + [flag, "0"], capsys)
    assert code == 2
    assert flag in err
