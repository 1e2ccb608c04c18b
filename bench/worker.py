"""One cold run of one workload's instance set, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --result FILE [--spans FILE] [--setup-only]

The driver (`run.py`) starts one of these per repetition, so every
repetition pays what a `raynaud` CLI user pays: interpreter start, the
package and numpy imports, and empty module-level caches.  It writes one
JSON record to FILE.  With --spans the tracer is installed and its spans
are written to that file; with --setup-only it stops where the first
instance would begin.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def peak_rss_mb():
    """Peak resident set of this process (VmHWM), in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def cache_sizes():
    from raynaud import blocks, invariants

    return {
        "blocks._BLOCK_INSTANCES": len(blocks._BLOCK_INSTANCES),
        "invariants._BLOCK_CACHE": len(invariants._BLOCK_CACHE),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import raynaud
    import raynaud.cli  # noqa: F401  (not imported by the package itself)

    cold = cache_sizes()
    if any(cold.values()):
        sys.exit(f"module caches are not empty after import: {cold}")
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    # imported after install, so its `from raynaud... import` names are the wrapped ones
    import checks
    import workloads

    instances = workloads.make_instances(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "raynaud_file": raynaud.__file__,
        "caches_after_import": cold,
        "t_first": time.monotonic(),
    }
    if not args.setup_only:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        rows = []
        for k, (label, run, check, info) in enumerate(instances):
            if tracer is not None:
                tracer.instance = k
            ti = time.perf_counter()
            out, reason = checks.gated(run, check)
            rows.append(
                {
                    "label": label,
                    "s": time.perf_counter() - ti,
                    "failure": reason,
                    "info": info(out) if reason is None else None,
                }
            )
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = cpu_seconds() - cpu0
        record["peak_rss_mb"] = peak_rss_mb()
        record["attempted"] = len(rows)
        record["failed"] = sum(r["failure"] is not None for r in rows)
        record["instances"] = rows
        record["caches_at_end"] = cache_sizes()
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer)
            record["max_snf_shape"] = tracing.max_snf_shape(tracer)
            tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
