"""Command-line surface.

Subcommands:

* ``invariants SPEC.json`` -- relation checks plus the full invariant
  table (h, h_W, T, m, polygons, betti) of the object described by the
  JSON spec.
* ``star SPECA.json SPECB.json [--derived]`` -- the star product of two
  blocks (presentation or closed form), or the derived star record for
  a height block against a second factor.
* ``report`` -- the classifying-stack pipeline and the counterexample
  tables.
* ``check SPEC.json`` -- the Crew / Ekedahl / symmetry / Mazur-Ogus
  checker suite.

Exit codes: 0 success; 1 invariant violation, failed check, or an
inapplicable closed form; 2 parse error, an out-of-range prime,
precision or V-depth, a degree bound below 0, a star spec at r > 1,
or a working precision past `ZMod`'s int64 limit ((p^m)^2 < 2^62; 11
at p = 7; slopes at r > 1 work at r times the requested precision);
3 non-stabilization.
JSON output has sorted keys, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .balphap import PipelineConfig, counterexample_report, report_to_json, report_to_markdown
from .formal import FormalObject, SpecError
from .invariants import (
    InvariantConfig,
    crew_check,
    ekedahl_check,
    hodge_witt_numbers,
    mazur_ogus_check,
    newton_hodge_polygon,
    symmetry_check,
)
from .linalg import PrecisionOutOfRange
from .rmod import Unstable, check_relations
from .star import ClosedFormInapplicable, derived_star, star_frobenius_bijective, star_presentation

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_UNSTABLE = 3


def _common_flags(sub):
    sub.add_argument("--p", type=int, default=None, help="prime (must match the spec file)")
    sub.add_argument("--r", type=int, default=None, help="residue field degree")
    sub.add_argument("--precision", type=int, default=3, help="coefficient precision m")
    sub.add_argument("--vdepth", type=int, default=8, help="V-depth n")
    sub.add_argument("--format", choices=["json", "md"], default="json")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="raynaud",
        description="Exact Hodge-Witt invariants of graded modules over the "
        "Cartier-Dieudonne-Raynaud ring",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    inv = subs.add_parser("invariants", help="invariant table of a JSON object spec")
    inv.add_argument("spec", help="path to the JSON module spec")
    _common_flags(inv)

    st = subs.add_parser("star", help="star product of two block specs")
    st.add_argument("spec_a")
    st.add_argument("spec_b")
    st.add_argument("--derived", action="store_true", help="derived star (Dieudonne x block)")
    st.add_argument(
        "--closed-form",
        action="store_true",
        help="force the Frobenius-bijective closed form (exit 1 if inapplicable)",
    )
    _common_flags(st)

    rp = subs.add_parser("report", help="the counterexample pipeline report")
    rp.add_argument("--mode", choices=["paper-nonsplit", "split"], default="paper-nonsplit")
    rp.add_argument("--degree-bound", type=int, default=3)
    rp.add_argument("--p", type=int, default=2)
    rp.add_argument("--precision", type=int, default=8)
    rp.add_argument("--vdepth", type=int, default=16)
    rp.add_argument("--format", choices=["json", "md"], default="json")

    ck = subs.add_parser("check", help="Crew/Ekedahl/symmetry/Mazur-Ogus checks")
    ck.add_argument("spec")
    ck.add_argument("--pure-dimension", type=int, default=None, help="N for Serre symmetry")
    _common_flags(ck)
    ap.set_defaults(spec_r=1)  # the r of the loaded spec, named when a precision is refused
    return ap


def _load_object(path, args):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    obj = FormalObject.from_json(text)
    if args.p is not None and obj.p != args.p:
        raise SpecError(f"--p {args.p} does not match the spec file (p = {obj.p})")
    if args.r is not None and obj.r != args.r:
        raise SpecError(f"--r {args.r} does not match the spec file (r = {obj.r})")
    _check_prime(obj.p)
    if not 1 <= obj.r <= 4:
        raise SpecError("r is limited to 1..4")
    args.spec_r = obj.r
    return obj


def _check_prime(p):
    if p not in (2, 3, 5, 7):
        raise SpecError("p must be one of 2, 3, 5, 7")


def _check_truncation(args):
    bounds = [("--precision", args.precision, 1), ("--vdepth", args.vdepth, 1)]
    if args.command == "report":
        bounds.append(("--degree-bound", args.degree_bound, 0))
    for flag, value, least in bounds:
        if value < least:
            raise SpecError(f"{flag} must be at least {least}, got {value}")


def _single_block(obj: FormalObject):
    if len(obj.summands) != 1 or obj.summands[0].i or obj.summands[0].j:
        raise SpecError("star expects a spec with exactly one unshifted block")
    if obj.r != 1:
        raise SpecError(f"star is implemented for r = 1, got r = {obj.r}")
    return obj.summands[0].block


def cmd_invariants(args) -> int:
    obj = _load_object(args.spec, args)
    cfg = InvariantConfig(args.precision, args.vdepth)
    for s in obj.summands:
        rep = check_relations(s.block.tower, min(args.precision, 3), min(args.vdepth, 6))
        if not rep.ok():
            print(f"relation violation in {s.block.label()}: {rep.identities()}", file=sys.stderr)
            return EXIT_VIOLATION
    table = hodge_witt_numbers(obj, cfg)
    if args.format == "md":
        print(table.to_markdown())
    else:
        print(table.to_json())
    return EXIT_OK


def cmd_star(args) -> int:
    a = _single_block(_load_object(args.spec_a, args))
    b = _single_block(_load_object(args.spec_b, args))
    m, n = args.precision, args.vdepth
    if args.derived:
        if a.kind != "Dieudonne":
            print("--derived expects a Dieudonne block first", file=sys.stderr)
            return EXIT_PARSE
        res = derived_star(a, b, min(m, 3), min(n, 8))
        payload = {
            "H-1": res["H-1"]["identified"] or res["H-1"]["status"],
            "H0": res["H0"]["identified"] or res["H0"]["status"],
            "H-1_presentation": {str(g): e for g, e in res["H-1"]["exps"].items()},
            "H0_presentation": {str(g): e for g, e in res["H0"]["exps"].items()},
        }
        print(json.dumps(payload, sort_keys=True))
        if res["H-1"]["identified"] is None or res["H0"]["identified"] is None:
            return EXIT_VIOLATION
        return EXIT_OK
    try:
        if args.closed_form:
            tower = star_frobenius_bijective(a, b)
        else:
            try:
                tower = star_frobenius_bijective(a, b)
            except ClosedFormInapplicable:
                tower, _ = star_presentation(a, b, m, n)
    except ClosedFormInapplicable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VIOLATION
    L = tower.level(m, n)
    payload = {
        "gradings": {
            str(g): {
                "exps": L.piece(g).pres.min_exps(),
                "dims": len(L.piece(g).pres.min_exps()),
            }
            for g in L.gradings()
        },
        "truncation": {"m": m, "n": n, "p": a.p},
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    _check_prime(args.p)
    if args.degree_bound > 3:
        print("not certified by pipeline (degree bound is 3)", file=sys.stderr)
        return EXIT_VIOLATION
    cfg = PipelineConfig(
        p=args.p,
        m=args.precision,
        n=args.vdepth,
        degree_bound=args.degree_bound,
        mode=args.mode,
    )
    report = counterexample_report(cfg)
    if args.format == "md":
        print(report_to_markdown(report))
    else:
        print(report_to_json(report))
    return EXIT_OK if report["all_checks_pass"] else EXIT_VIOLATION


def cmd_check(args) -> int:
    obj = _load_object(args.spec, args)
    cfg = InvariantConfig(args.precision, args.vdepth)
    table = hodge_witt_numbers(obj, cfg)
    cells = sorted(set(table.h) | set(table.hW) | set(table.T))
    N = args.pure_dimension
    if N is None:
        N = max((i + j for i, j in cells), default=0)
    results = {}
    crew = {}
    for i in sorted({i for i, _ in cells} | {0}):
        c = crew_check(obj, i, cfg)
        crew[str(i)] = {
            "pass": bool(c),
            "hW_sum": str(c.details["hW_sum"]),
            "h_sum": str(c.details["h_sum"]),
        }
    results["crew"] = crew
    eke = ekedahl_check(obj, cfg)
    violations = [list(c) for c in eke.details["violations"]]
    results["ekedahl"] = {"pass": bool(eke), "violations": violations}
    sym = symmetry_check(obj, N, cfg)
    results["symmetry"] = {
        "pass": bool(sym),
        "hodge_deltas": {f"{i},{j}": str(v) for (i, j), v in sym.details["hodge_deltas"].items()},
        "serre_deltas": {f"{i},{j}": str(v) for (i, j), v in sym.details["serre_deltas"].items()},
        "N": N,
    }
    mo = mazur_ogus_check(obj, cfg)
    results["mazur_ogus"] = {"pass": bool(mo), "details": _stringify(mo.details)}
    degs = sorted({i + j for i, j in cells})
    polys = {}
    for nn in degs:
        res = newton_hodge_polygon(obj, nn, cfg)
        polys[str(nn)] = {
            "pass": res["pass"],
            "newton": [[str(s), str(mu)] for s, mu in res["newton"]],
            "newton_hodge": [[str(s), str(mu)] for s, mu in res["newton_hodge"]],
        }
    results["newton_hodge"] = polys
    print(json.dumps(results, sort_keys=True))
    # Crew and Ekedahl are theorems for these objects; their failure is a defect
    if not all(v["pass"] for v in crew.values()) or not eke:
        return EXIT_VIOLATION
    return EXIT_OK


def _stringify(data):
    if isinstance(data, dict):
        return {str(k): _stringify(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_stringify(v) for v in data]
    return str(data) if not isinstance(data, (int, bool)) else data


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_truncation(args)
        if args.command == "invariants":
            return cmd_invariants(args)
        if args.command == "star":
            return cmd_star(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "check":
            return cmd_check(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PrecisionOutOfRange as exc:
        at_r = f" at r = {args.spec_r}" if args.spec_r > 1 else ""
        print(f"spec error: {exc} (requested --precision {args.precision}{at_r})", file=sys.stderr)
        return EXIT_PARSE
    except Unstable as exc:
        print(f"non-stabilization: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
