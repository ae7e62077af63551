"""Worker process of the benchmark; perfbench/run.py starts it.

    worker.py setup        time a cold start: import nilcurv.cli and build
                           every catalog entry, in this fresh interpreter
    worker.py run W ...    run passes of workload W and print them, with
                           peak memory and (traced) per-layer totals, as
                           one JSON line
    worker.py reference    rewrite reference/paper_suite.json from the
                           paper-suite reports at seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def cold_setup() -> float:
    t0 = time.perf_counter()
    import nilcurv.cli  # noqa: F401
    from nilcurv.catalog import list_catalog
    for entry in list_catalog():
        entry.build()
    return time.perf_counter() - t0


def run(workload: str, seed: int, budget: float, max_passes: int,
        traced: bool, smoke: bool) -> dict:
    """Passes until the budget is spent (at least one, at most max_passes
    when that is positive)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload](seed, smoke)
    tracer = tracing.Tracer() if traced else None
    passes = []
    try:
        with tracing.installed(tracer) if traced else nullcontext():
            t0 = time.perf_counter()
            while True:
                p0 = time.perf_counter()
                result = wl.run_pass(tracer).to_dict()
                result["wall_s"] = time.perf_counter() - p0
                passes.append(result)
                if max_passes and len(passes) >= max_passes:
                    break
                # the next pass starts if at least half of it fits
                if time.perf_counter() - t0 + result["wall_s"] / 2 > budget:
                    break
    finally:
        if hasattr(wl, "close"):
            wl.close()
    setup = getattr(wl, "setup_result", None)
    out = {"passes": passes,
           "setup": setup.to_dict() if setup else None,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        out["layers"] = {
            key: value if key.endswith(".deform_ratio")
            else value / len(passes)
            for key, value in tracer.layer_metrics().items()}
        out["operations"] = tracer.by_operation()
        workloads.WORK_DIR.mkdir(exist_ok=True)
        path = workloads.WORK_DIR / \
            f"trace-{workload}-seed{seed}-{os.getpid()}.jsonl"
        tracer.dump(path)
    return out


def write_reference() -> None:
    import workloads
    reports = workloads.PaperSuite(0).reference_reports()
    reports.update(workloads.PaperSuite(0, smoke=True).reference_reports())
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(
        json.dumps(reports, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    sub.add_parser("reference")
    r = sub.add_parser("run")
    r.add_argument("workload")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--budget", type=float, required=True)
    r.add_argument("--max-passes", type=int, default=0)
    r.add_argument("--traced", action="store_true")
    r.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.mode == "setup":
        out = {"setup_s": cold_setup()}
    elif args.mode == "reference":
        write_reference()
        return 0
    else:
        out = run(args.workload, args.seed, args.budget, args.max_passes,
                  args.traced, args.smoke)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
