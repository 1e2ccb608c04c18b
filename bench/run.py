"""Benchmark of the exact kernel, one cold process per repetition.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It benchmarks the `src/raynaud` of the checkout it sits in, from any
working directory.  Each repetition is a fresh interpreter (`worker.py`)
that runs the workload's whole instance set through the package's public
API; one client, closed loop, one process at a time, BLAS/OpenMP pools
held to one thread.

--trace 0 (timed run): five set-up-only processes, then repetitions until
  another one would overrun --seconds (at least one).  Prints the
  end-to-end metrics of BENCHMARK.json, each a median over repetitions.
--trace 1 (traced run): one untraced repetition and two traced ones with
  the same seed.  Prints the per-layer metrics of BENCHMARK.json; counts
  must repeat exactly between the two traced repetitions.

The last line of stdout is the result object; the line before it is the
run's provenance.  Per-repetition records and spans go to bench/out/.
Exit code 1 means a repetition crashed or overran; 2 means the package
or BENCHMARK.json is missing.  Either way no result line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
RUN_DEADLINE_S = 170  # every run must end within 180 s
# per-layer metrics that are times; all others are counts that must repeat
TIME_SUFFIXES = (".s", ".self_s", ".miss_s")


class RepetitionFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    # PYTHONHASHSEED fixes set iteration order, so traced counts repeat
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )
    return env


def spawn(args, tag, deadline, spans=False, setup_only=False):
    """Run one worker to completion; returns its record plus setup and process time."""
    result = OUT / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--result", str(result),
    ]
    if spans:
        cmd += ["--spans", str(OUT / f"{tag}.spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepetitionFailed(f"{tag}: no time left before the {RUN_DEADLINE_S} s deadline")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"{tag}: killed at the {RUN_DEADLINE_S} s deadline") from None
    t1 = time.monotonic()
    if proc.returncode != 0 or not result.exists():
        raise RepetitionFailed(f"{tag}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    rec = json.loads(result.read_text())
    rec["setup_s"] = rec["t_first"] - t0  # CLOCK_MONOTONIC is shared by both processes
    rec["process_s"] = t1 - t0
    return rec


def provenance(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "raynaud").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "workload_seed": seed,
    }


def tally(records):
    """(attempted, failed) instances over the records of full repetitions."""
    reps = [r for r in records if "attempted" in r]
    return sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps)


def timed_run(args, deadline):
    probes = [spawn(args, f"{args.workload}-s{args.seed}-setup{k}", deadline, setup_only=True)
              for k in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(spawn(args, f"{args.workload}-s{args.seed}-rep{len(reps)}", deadline))
        if time.monotonic() - start + reps[-1]["process_s"] > args.seconds:
            break
    attempted, failed = tally(reps)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_ratio": 1 - failed / attempted,
    }
    return metrics, probes + reps, []


def traced_run(args, deadline):
    plain = spawn(args, f"{args.workload}-s{args.seed}-untraced", deadline)
    traced = [spawn(args, f"{args.workload}-s{args.seed}-traced{k}", deadline, spans=True)
              for k in range(2)]
    a, b = (t["layers"] for t in traced)
    mismatches = [
        f"{name}: {a[name]} != {b[name]}"
        for name in a
        if not name.endswith(TIME_SUFFIXES) and a[name] != b[name]
    ]
    metrics = {
        name: statistics.median([a[name], b[name]]) if name.endswith(TIME_SUFFIXES) else a[name]
        for name in a
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced) / plain["wall_s"]
    )
    metrics["trace.count_mismatches"] = len(mismatches)
    return metrics, [plain, *traced], mismatches


def main(argv=None):
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "raynaud" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no src/raynaud package or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a name from workloads.make_instances")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        metrics, reps, mismatches = (traced_run if args.trace else timed_run)(args, deadline)
    except RepetitionFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = tally(reps)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    prov = provenance(args.seed)
    prov["numpy"] = reps[0]["numpy"]
    prov["repetitions"] = sum("wall_s" in r for r in reps)
    if args.workload == "report":
        prov["report_levels"] = [r["info"] for r in reps[-1]["instances"] if r["info"]]
    failures = [
        f"{r['label']}: {r['failure']}"
        for rep in reps
        for r in rep.get("instances", [])
        if r["failure"]
    ]
    for line in failures + [f"nondeterministic count {m}" for m in mismatches]:
        print(line, file=sys.stderr)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"provenance": prov, "result": result, "failures": failures,
              "mismatches": mismatches, "repetitions": reps}
    path = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
