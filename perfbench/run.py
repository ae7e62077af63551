"""nilcurv benchmark: one command, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 30 \
        --trace 0

Workloads: paper-suite, cli-catalog, curvature-sweep (see README.md).
With --trace 0 it prints every end-to-end metric with its unit, then one
JSON line {"correct", "attempted", "failed", "metrics"}; with --trace 1
it runs half the time untraced and half traced and reports the per-layer
metrics and the tracing overhead instead. Work runs in worker processes
(perfbench/worker.py), each waited for; the library is imported from
src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
WORKLOADS = ("paper-suite", "cli-catalog", "curvature-sweep")
FRESH_PROCESS_PER_PASS = {"paper-suite"}
SETUP_RUNS = 9
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "light_s": "s",
    "heavy_s": "s",
}

GROUPS = {
    "paper-suite": ("quick checks at ten seeds",
                    "ric-sign-witnesses, sectional-sign-planes, "
                    "closure-dichotomy, coverage"),
    "cli-catalog": ("check, ric, sect, signsets requests",
                    "classify, maxmin requests"),
    "curvature-sweep": ("Metric.random, ricci_operator, 8 sectional_K "
                        "per metric",
                        "deformed_ricci at 3 t, scaled_ricci_limit "
                        "per metric"),
}


class BenchmarkError(RuntimeError):
    pass


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in output order."""
    units = {}
    for name in tracing.traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in tracing.SEARCHES:
            units[f"{name}.failed"] = "count"
    units[f"{tracing.K_SEARCH}.deform_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile, p in [0, 100]."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least ten samples of one pass
    beyond it; 100 (the maximum) when a pass has ten samples or fewer.
    Fixing it by the pass, not the run, keeps it the same however many
    passes a run fits."""
    if per_pass <= 10:
        return 100
    return math.floor(100.0 * (1.0 - 10.0 / per_pass))


def worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_phase(workload: str, seed: int, budget: float, traced: bool,
              smoke: bool, deadline: float) -> dict:
    """Passes for `budget` seconds: one worker, or for paper-suite one fresh
    worker per pass while the next pass still fits."""
    fresh = workload in FRESH_PROCESS_PER_PASS
    phase = {"passes": [], "setups": [], "peak_rss_mb": 0.0, "layers": [],
             "operations": []}
    t0 = time.monotonic()
    while True:
        remaining = budget - (time.monotonic() - t0)
        args = ["run", workload, "--seed", str(seed),
                "--budget", str(max(remaining, 0.0)),
                "--max-passes", "1" if fresh else "0"]
        args += ["--traced"] if traced else []
        args += ["--smoke"] if smoke else []
        out = worker(args, deadline)
        phase["passes"] += out["passes"]
        if out["setup"]:
            phase["setups"].append(out["setup"])
        phase["peak_rss_mb"] = max(phase["peak_rss_mb"], out["peak_rss_mb"])
        if traced:
            phase["layers"].append(out["layers"])
            phase["operations"].append(out["operations"])
        last = out["passes"][-1]["wall_s"]
        if not fresh or time.monotonic() - t0 + last / 2 > budget:
            return phase


def counts(phase: dict) -> tuple[int, list[str], list[str]]:
    """Distinct operations attempted and failed, and the wrong outputs.
    Every pass repeats the same operations on the same inputs, so an
    operation counts once however many passes the run fitted, and failed
    once if it failed in any of them."""
    parts = phase["passes"] + phase["setups"]
    attempted = {op for p in parts for op in p["ops"]}
    failures = {}
    for p in parts:
        failures.update(p["failures"])
    mismatches = [m for p in parts for m in p["mismatches"]]
    return (len(attempted), [f"{op}: {msg}" for op, msg in failures.items()],
            mismatches)


def end_to_end(workload: str, phase: dict, setups: list[dict]) -> tuple:
    """The gated metrics with a note each, and the figures printed beside
    them: raw wall times, latency percentiles, per-check times."""
    passes = phase["passes"]
    n = len(passes)
    # A probe next to a single cold start varied more than the start
    # itself, so setup_s is adjusted by the speed the run's own probes
    # measured over the passes that follow, right after the cold starts.
    speed = statistics.median(p["pass_s"] / p["pass_raw_s"] for p in passes)
    setup_raw = statistics.median(s["setup_s"] for s in setups)
    metrics = {"setup_s": setup_raw * speed,
               "peak_rss_mb": phase["peak_rss_mb"]}
    notes = {"setup_s": f"median of {len(setups)} fresh interpreters, "
                        f"speed-adjusted",
             "peak_rss_mb": "max over workload processes"}
    extra = [("setup_raw_s", setup_raw, "s",
              f"median of {len(setups)}, wall time"),
             ("speed", speed, "ratio", "median over passes of adjusted / "
                                       "wall time")]
    for key in ("pass_s", "light_s", "heavy_s"):
        metrics[key] = statistics.median(p[key] for p in passes)
        notes[key] = f"median of {n} passes, speed-adjusted"
        raw = key.replace("_s", "_raw_s")
        extra.append((raw, statistics.median(p[raw] for p in passes), "s",
                      f"median of {n} passes, wall time"))
    for group in ("light", "heavy"):
        samples = [x for p in passes for x in p[f"{group}_ms"]]
        tail = tail_percentile(min(len(p[f"{group}_ms"]) for p in passes))
        extra.append((f"{group}_p50_ms", statistics.median(samples), "ms",
                      f"n={len(samples)}, speed-adjusted"))
        extra.append((f"{group}_tail_ms", percentile(samples, tail), "ms",
                      f"p{tail}, n={len(samples)}, speed-adjusted"))
    for name in passes[0]["named_s"]:
        extra.append((name, statistics.median(p["named_s"][name]
                                              for p in passes), "s",
                      f"median of {n} passes, speed-adjusted"))
    if workload == "curvature-sweep":
        done = len(passes[0]["light_ms"])
        extra.append(("curv_metrics_per_s", done / metrics["pass_s"], "1/s",
                      f"{done} metrics per pass, speed-adjusted"))
    return metrics, notes, extra


def operation_lines(per_worker: list[dict]) -> list[str]:
    """Per top-level operation: wall time, the share of it that the traced
    functions' self times account for, and the largest of them."""
    ops: dict[str, dict] = {}
    for operations in per_worker:
        for label, entry in operations.items():
            op = ops.setdefault(label, {"wall_s": 0.0, "self_s": {}})
            op["wall_s"] += entry["wall_s"]
            for name, self_s in entry["self_s"].items():
                op["self_s"][name] = op["self_s"].get(name, 0.0) + self_s
    lines = ["operation (traced wall time; share in traced functions' "
             "self time; largest self times)"]
    for label, op in ops.items():
        named = {k: v for k, v in op["self_s"].items() if k != label}
        share = sum(named.values()) / op["wall_s"] if op["wall_s"] else 0.0
        top = sorted(named.items(), key=lambda kv: -kv[1])[:4]
        lines.append(f"  {label}: {op['wall_s']:.4f} s; {share:.1%}; "
                     + ", ".join(f"{k} {v:.4f} s" for k, v in top))
    return lines


def report(args, deadline: float) -> dict:
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"seconds {args.seconds}  trace {args.trace}",
             f"light group: {GROUPS[args.workload][0]}",
             f"heavy group: {GROUPS[args.workload][1]}"]
    if args.trace:
        half = args.seconds / 2.0
        base = run_phase(args.workload, args.seed, half, False, args.smoke,
                         deadline)
        traced = run_phase(args.workload, args.seed, half, True, args.smoke,
                           deadline)
        attempted, failures, mismatches = counts(traced)
        n = len(traced["passes"])
        metrics = {key: statistics.mean(layer[key]
                                        for layer in traced["layers"])
                   for key in traced["layers"][0]}
        untraced_s = statistics.median(p["wall_s"] for p in base["passes"])
        traced_s = statistics.median(p["wall_s"] for p in traced["passes"])
        metrics["trace.overhead_s"] = traced_s - untraced_s
        units = layer_units()
        lines.append(f"traced passes {n}; per-layer values are per pass")
        lines.append(f"pass wall time untraced {untraced_s:.4f} s, traced "
                     f"{traced_s:.4f} s, overhead "
                     f"{metrics['trace.overhead_s']:.4f} s")
        for key, unit in units.items():
            if metrics[key]:
                lines.append(f"  {key:58s} {metrics[key]:14.6g} {unit}")
        lines += operation_lines(traced["operations"])
    else:
        setups = [worker(["setup"], deadline)
                  for _ in range(1 if args.smoke else SETUP_RUNS)]
        phase = run_phase(args.workload, args.seed, args.seconds, False,
                          args.smoke, deadline)
        attempted, failures, mismatches = counts(phase)
        metrics, notes, extra = end_to_end(args.workload, phase, setups)
        units = END_TO_END_UNITS
        for key, unit in units.items():
            lines.append(f"{key:20s} {metrics[key]:12.6g} {unit:6s} "
                         f"{notes[key]}")
        lines.append("also measured, not gated:")
        for key, value, unit, note in extra:
            lines.append(f"  {key:18s} {value:12.6g} {unit:6s} {note}")
    failed = len(failures)
    lines.append(f"failed_frac {failed / attempted:.6g} ratio "
                 f"({failed} failed of {attempted} attempted)")
    lines += [f"FAILED {f}" for f in failures[:20]]
    lines += [f"MISMATCH {m}" for m in mismatches[:20]]
    print("\n".join(lines))
    return {"correct": not mismatches, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nilcurv" / "__init__.py").is_file():
        print(f"error: no nilcurv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = report(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
