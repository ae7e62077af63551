"""verify-paper reports against the stored benchmark reference: the four
quick checks at seeds 0-9, ric-sign-witnesses, closure-dichotomy and
coverage at seed 0, and sectional-sign-planes at seed 0 on the
paper-suite's sub-catalog, compared as the paper-suite workload compares
them (booleans, integers and strings exactly, floats within the check's
largest tolerance). The reference file is only read."""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH_DIR)]

import workloads  # noqa: E402
from nilcurv import verify  # noqa: E402

REFERENCE = workloads.strict_json(workloads.REFERENCE.read_text())
RUNS = [(name, seed) for name in workloads.QUICK_CHECKS for seed in range(10)]
RUNS += [(name, 0) for name in ("ric-sign-witnesses", "closure-dichotomy",
                                "coverage")]


@pytest.mark.parametrize("name, seed", RUNS, ids=[f"{n}@{s}" for n, s in RUNS])
def test_report_matches_reference(name, seed):
    report = verify.run_suite(only=name, seed=seed)["results"][0]
    key = f"{name}@{seed}"
    assert key in REFERENCE
    assert workloads.check_against_reference(key, name, report,
                                             REFERENCE) == []


def test_sectional_planes_on_the_bench_subcatalog_match_reference():
    """sectional-sign-planes on the paper-suite's sub-catalog at seed 0."""
    name, key = "sectional-sign-planes", "sectional-sign-planes[bench]@0"
    with workloads._sect_catalog(workloads.SECT_ALGEBRAS["bench"]):
        report = verify.run_suite(only=name, seed=0)["results"][0]
    assert workloads.check_against_reference(key, name, report,
                                             REFERENCE) == []
