"""Tests of the benchmark itself: span arithmetic, metric names and units,
and a smoke configuration of every workload."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    # op [0, 10] > A [1, 4] > B [2, 3];  op > C [5, 9], a hot leaf,
    # called twice: [5, 6] and [7, 9]
    root = tr.enter("op")
    clock.now = 1.0
    a = tr.enter("A")
    clock.now = 2.0
    b = tr.enter("B")
    clock.now = 3.0
    tr.exit(b)
    clock.now = 4.0
    tr.exit(a)
    for start, end in ((5.0, 6.0), (7.0, 9.0)):
        clock.now = start
        c = tr.enter("C", hot=True)
        clock.now = end
        tr.exit(c)
    clock.now = 10.0
    tr.exit(root)
    assert {k: v[:2] for k, v in tr.totals.items()} == {
        "B": [1, 1.0], "A": [1, 2.0], "C": [2, 3.0], "op": [1, 4.0]}
    spans = {s[3]: s for s in tr.spans}
    assert set(spans) == {"op", "A", "B"}
    op_id = spans["op"][0]
    assert spans["A"][1] == op_id and spans["B"][1] == spans["A"][0]
    assert all(s[2] == op_id for s in tr.spans)  # one id per operation
    assert tr.buckets == {(op_id, "C"): [2, 3.0, 3.0]}
    ops = tr.by_operation()
    assert ops == {"op": {"wall_s": 10.0,
                          "self_s": {"op": 4.0, "A": 2.0, "B": 1.0,
                                     "C": 3.0}}}


def test_installed_wraps_every_binding_site_and_restores():
    from nilcurv import rational, verify
    original = rational.rref
    tr = tracing.Tracer()
    with tracing.installed(tr):
        assert rational.rref is not original
        assert verify.CHECKS["coverage"] is verify.check_coverage
        assert hasattr(verify.check_coverage, "__wrapped__")
        verify.run_suite(only="heisenberg-spectrum", seed=0)
        rational.rank([[1, 2], [2, 4]])
    assert rational.rref is original
    metrics = tr.layer_metrics()
    assert metrics["verify.check_heisenberg_spectrum.calls"] == 1
    assert metrics["rational.rank.calls"] == 1
    assert metrics["rational.rref.calls"] == 1  # called inside rank
    assert metrics["curvature.Metric.__init__.calls"] > 0


def test_failed_searches_are_counted():
    import numpy as np
    from nilcurv import build, sign_sets
    tr = tracing.Tracer()
    alg = build("heisenberg", m=1)
    with tracing.installed(tr):
        with pytest.raises(sign_sets.PreconditionError):
            sign_sets.find_negative_ric_witness(alg, np.array([0., 0., 1.]))
    assert tr.layer_metrics()[
        "sign_sets.find_negative_ric_witness.failed"] == 1


def test_tail_percentile_leaves_ten_samples_of_a_pass_beyond():
    assert run.tail_percentile(90) == 88
    assert run.tail_percentile(36) == 72
    assert run.tail_percentile(10) == 100
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0], 100) == 2.0


def test_counts_do_not_depend_on_the_number_of_passes():
    one = {"ops": ["a", "b", "c"], "failures": {"b": "exit 1"},
           "mismatches": []}
    setup = {"ops": ["setup"], "failures": {}, "mismatches": []}
    for n in (1, 3):
        phase = {"passes": [dict(one) for _ in range(n)],
                 "setups": [setup]}
        assert run.counts(phase) == (4, ["b: exit 1"], [])


def test_quick_checks_do_not_depend_on_the_seed():
    a, b = workloads.PaperSuite(0), workloads.PaperSuite(5)

    def quick(wl):
        return [r for r in wl.runs if r[0] in workloads.QUICK_CHECKS]

    assert quick(a) == quick(b)
    assert {("deformation-limit", s) for s in (1, 3, 7, 9)} <= set(quick(a))
    assert a.runs != b.runs  # the heavy checks follow the seed


def test_compare_is_exact_except_for_floats():
    ref = {"passed": True, "n": 3, "s": "x", "v": [0.5, 1.0]}
    assert workloads.compare(ref, ref, 0.0) == []
    assert workloads.compare({**ref, "v": [0.5 + 1e-7, 1.0]}, ref,
                             1e-6) == []
    assert workloads.compare({**ref, "v": [0.6, 1.0]}, ref, 1e-6)
    assert workloads.compare({**ref, "n": 4}, ref, 1.0)
    assert workloads.compare({**ref, "passed": 1}, ref, 1.0)
    with pytest.raises(ValueError):
        workloads.strict_json('{"x": NaN}')


def test_metric_names_and_units_match_the_spec():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
            assert any(line.split()[:1] == [name] and metric["unit"]
                       in line.split() for line in lines[:-1]), name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-catalog",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_stopwatch_scales_wall_time_by_the_probe(monkeypatch):
    probes = iter([2 * probe.PROBE_REF_S, 4 * probe.PROBE_REF_S])
    monkeypatch.setattr(probe, "probe", lambda: next(probes))
    with probe.Stopwatch() as watch:
        pass
    assert watch.speed == pytest.approx(1.0 / 3.0)
    assert watch.adjusted_s == pytest.approx(watch.raw_s / 3.0)
