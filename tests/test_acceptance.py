"""Acceptance gate: every check in the verification suite passes within
its runtime budget, and the verification report is byte-deterministic."""

import subprocess
import sys
import time

import pytest

from nilcurv import verify

BUDGETS_S = {
    "heisenberg-spectrum": 1.0,
    "filiform4-spectrum": 1.0,
    "deformation-limit": 30.0,
    "extremal-convergence": 10.0,
    "ric-sign-witnesses": 60.0,
    "sectional-sign-planes": 20.0,
    "closure-dichotomy": 120.0,
    "coverage": 120.0,
}

_results: dict = {}


def _run(name):
    if name not in _results:
        start = time.perf_counter()
        res = verify.CHECKS[name](seed=0)
        res["wall_s"] = time.perf_counter() - start
        _results[name] = res
    return _results[name]


@pytest.mark.parametrize("name", sorted(BUDGETS_S))
def test_check_passes_within_budget(name):
    res = _run(name)
    assert res["passed"], res.get("details")
    assert res["wall_s"] < BUDGETS_S[name], (
        f"{name} took {res['wall_s']:.1f}s (budget {BUDGETS_S[name]}s)")


# the seeded checks that pass at every seed; deformation-limit still fails
# at seeds 1, 3, 7 and 9 on its absolute eigenvalue bound (ROADMAP item 2)
@pytest.mark.parametrize("seed", range(1, 10))
@pytest.mark.parametrize("name", ["coverage", "extremal-convergence",
                                  "ric-sign-witnesses"])
def test_check_passes_at_other_seeds(name, seed):
    res = verify.CHECKS[name](seed=seed)
    assert res["passed"], res.get("details")


def test_report_byte_deterministic():
    cmd = [sys.executable, "-m", "nilcurv.cli", "verify-paper",
           "--only", "spectra", "--json", "--seed", "0"]
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        p = subprocess.run(cmd, capture_output=True, timeout=30)
        assert time.perf_counter() - start < 5.0
        assert p.returncode == 0, p.stderr.decode()
        runs.append(p.stdout)
    assert runs[0] == runs[1]
