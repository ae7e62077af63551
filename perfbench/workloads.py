"""The three benchmark workloads, their inputs and their correctness checks.

Each workload is a class whose `run_pass(tracer)` performs one pass, a
fixed list of operations, and returns a PassResult. Every operation is
timed on its own, with machine-speed probes around and during it (see
Stopwatch); the benchmark's own correctness checks run outside the timed
intervals and untraced. Inputs come only from the workload seed.

- PaperSuite: the verify-paper checks, as a reader of the paper runs them.
- CliCatalog: one closed-loop client issuing CLI requests on the catalog.
- CurvatureSweep: the scalar curvature and deformation API over many
  random metrics.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import nilcurv.cli
from nilcurv import catalog, curvature, deformation, verify
from probe import Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference" / "paper_suite.json"

QUICK_CHECKS = ("heisenberg-spectrum", "filiform4-spectrum",
                "deformation-limit", "extremal-convergence")

# The quick checks run at these seeds whatever the workload seed. They
# include the known deformation-limit failures (seeds 1, 3, 7, 9), so every
# run counts the same failed operations, and the reference stores them all.
QUICK_SEEDS = {"bench": range(10), "smoke": range(1)}

# sectional-sign-planes runs on this part of the catalog. The full check
# takes about 200 s, longer than one benchmark run may take; two passes of
# the suite must fit one run. This part keeps all three of the check's
# costs (exact classify_plane, batched K, witness searches) and the n = 5
# plane grid, and takes about 4 s.
SECT_ALGEBRAS = {
    "bench": ("abelian3", "heisenberg3", "h3xA1", "filiform4",
              "L5_lemma7a"),
    "smoke": ("abelian3", "heisenberg3", "h3xA1", "filiform4"),
}


@dataclass
class PassResult:
    # per operation, in pass order: adjusted and raw milliseconds
    light_ms: list = field(default_factory=list)
    heavy_ms: list = field(default_factory=list)
    light_raw_ms: list = field(default_factory=list)
    heavy_raw_ms: list = field(default_factory=list)
    named_s: dict = field(default_factory=dict)  # per-check times, adjusted
    ops: list = field(default_factory=list)         # operation ids, in order
    failures: dict = field(default_factory=dict)    # failed id -> message
    mismatches: list = field(default_factory=list)  # wrong outputs

    def add(self, group: str, watch: Stopwatch) -> None:
        getattr(self, f"{group}_ms").append(watch.adjusted_s * 1000.0)
        getattr(self, f"{group}_raw_ms").append(watch.raw_s * 1000.0)

    def to_dict(self) -> dict:
        sums = {key: sum(getattr(self, f"{key}_ms")) / 1000.0
                for key in ("light", "heavy", "light_raw", "heavy_raw")}
        return {**asdict(self), **{f"{k}_s": v for k, v in sums.items()},
                "pass_s": sums["light"] + sums["heavy"],
                "pass_raw_s": sums["light_raw"] + sums["heavy_raw"]}


def _operation(tracer, label):
    return tracer.operation(label) if tracer else nullcontext()


def _paused(tracer):
    return tracer.pause() if tracer else nullcontext()


# ---------------------------------------------------------------------------
# correctness helpers


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _numeric_tolerance(tolerances: dict) -> float:
    values = [abs(v) for v in tolerances.values()
              if isinstance(v, (int, float)) and not isinstance(v, bool)]
    return max(values) if values else 0.0


def compare(got, ref, atol: float, path: str = "") -> list[str]:
    """Differences between two JSON values: booleans, integers and strings
    exactly, floats within atol."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for key in ref:
            out += compare(got[key], ref[key], atol, f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare(g, r, atol, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isnan(ref) and math.isnan(got):
            return []
        if abs(got - ref) <= atol or got == ref:
            return []
        return [f"{path}: {got!r} != {ref!r} (atol {atol})"]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def _seed_free_part(name: str, report: dict) -> dict:
    """The parts of a check report that do not depend on the seed."""
    details = report["details"]
    part = {"name": report["name"], "tolerances": report["tolerances"]}
    if name == "extremal-convergence":
        part["details"] = details
    elif name == "sectional-sign-planes":
        part["per_algebra"] = details["per_algebra"]
    elif name == "closure-dichotomy":
        part["oracle_max_dimL"] = details["oracle_max_dimL"]
    elif name == "coverage":
        part["frames"] = {k: v for k, v in details.items()
                          if k not in ("h5", "filiform4", "failures")}
    return part


def check_against_reference(key: str, name: str, report: dict,
                            reference: dict) -> list[str]:
    """Compare a check report with the stored one for the same check and
    seed; when that seed is not stored, compare the seed-free parts with
    any stored run of the check."""
    report = {k: v for k, v in report.items() if k != "runtime_s"}
    atol = _numeric_tolerance(report["tolerances"])
    if key in reference:
        return [f"{key}{d}" for d in compare(report, reference[key], atol)]
    stored = [v for k, v in reference.items() if v["name"] == name]
    if not stored:
        return [f"{key}: no stored reference for {name}"]
    got = _seed_free_part(name, report)
    ref = _seed_free_part(name, stored[0])
    if name == "sectional-sign-planes":
        # compare the algebras present in both runs
        common = set(got["per_algebra"]) & set(ref["per_algebra"])
        got["per_algebra"] = {k: got["per_algebra"][k] for k in common}
        ref["per_algebra"] = {k: ref["per_algebra"][k] for k in common}
    return [f"{key}{d}" for d in compare(got, ref, atol)]


# ---------------------------------------------------------------------------
# paper-suite


@contextmanager
def _sect_catalog(labels):
    """verify.check_sectional_planes sees only the named catalog entries."""
    full = verify.list_catalog
    entries = [e for e in catalog.list_catalog() if e.label in labels]
    verify.list_catalog = lambda filter_class=None: list(entries)
    try:
        yield
    finally:
        verify.list_catalog = full


class PaperSuite:
    """verify.run_suite(seed=S) check by check, with the quick checks at
    seed 0, then the four quick checks at seeds 1..9. Runs in a fresh
    interpreter per pass, so every pass pays the per-process plane-grid
    cache and the lazy sympy import, as a CLI user does."""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.config = "smoke" if smoke else "bench"
        quick_seeds = QUICK_SEEDS[self.config]
        heavy = ("sectional-sign-planes",) if smoke else \
            tuple(n for n in verify.CHECKS if n not in QUICK_CHECKS)
        self.runs = [(n, quick_seeds[0] if n in QUICK_CHECKS else seed)
                     for n in verify.CHECKS
                     if n in QUICK_CHECKS or n in heavy]
        self.runs += [(n, s) for s in quick_seeds[1:]
                      for n in QUICK_CHECKS]
        self.reference = json.loads(REFERENCE.read_text()) \
            if REFERENCE.exists() else {}

    def key(self, name: str, seed: int) -> str:
        if name == "sectional-sign-planes":
            return f"{name}[{self.config}]@{seed}"
        return f"{name}@{seed}"

    def run_check(self, name: str, seed: int, tracer=None):
        ctx = _sect_catalog(SECT_ALGEBRAS[self.config]) \
            if name == "sectional-sign-planes" else nullcontext()
        with ctx, Stopwatch() as watch, \
                _operation(tracer, f"check:{name}@{seed}"):
            suite = verify.run_suite(only=name, seed=seed)
        return suite["results"][0], watch

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        named = {"quick_checks_s": 0.0, "ric_witnesses_s": 0.0,
                 "sect_planes_s": 0.0, "closure_s": 0.0, "coverage_s": 0.0}
        field_of = {"ric-sign-witnesses": "ric_witnesses_s",
                    "sectional-sign-planes": "sect_planes_s",
                    "closure-dichotomy": "closure_s",
                    "coverage": "coverage_s"}
        for name, seed in self.runs:
            report, watch = self.run_check(name, seed, tracer)
            op = f"{name}@{seed}"
            res.ops.append(op)
            if not report["passed"]:
                res.failures[op] = "check failed"
            quick = name in QUICK_CHECKS
            res.add("light" if quick else "heavy", watch)
            named["quick_checks_s" if quick else field_of[name]] += \
                watch.adjusted_s
            res.mismatches += check_against_reference(
                self.key(name, seed), name, report, self.reference)
        res.named_s = named
        return res

    def reference_reports(self) -> dict:
        """Reports of one pass, keyed as the reference file stores them."""
        out = {}
        for name, seed in self.runs:
            report, _ = self.run_check(name, seed)
            report.pop("runtime_s")
            out[self.key(name, seed)] = report
        return out


# ---------------------------------------------------------------------------
# cli-catalog


# classify and maxmin are the heavy requests
LIGHT_COMMANDS = ("check", "ric", "sect", "signsets-vector", "signsets-plane")

# The --seed of every request. At this seed both known maxmin failures show:
# filiform4 exits 1 and heisenberg_m1 raises CandidateError. A fixed seed
# makes every run count the same failed requests; the vectors and planes
# still come from the workload seed.
CLI_SEED = 105


def _small_vector(rng, n: int) -> list[int]:
    while True:
        v = rng.integers(-1, 2, size=n)
        if np.any(v):
            return [int(x) for x in v]


def _small_plane(rng, n: int) -> tuple[list[int], list[int]]:
    while True:
        x, y = _small_vector(rng, n), _small_vector(rng, n)
        if np.linalg.matrix_rank(np.array([x, y], float)) == 2:
            return x, y


def _fmt(v) -> str:
    return ",".join(str(x) for x in v)


class CliCatalog:
    """A single closed-loop client: `nilcurv catalog --emit-json` once, then
    per pass the seven requests check, ric, sect --plane, signsets --vector,
    signsets --plane, classify and maxmin on each catalog algebra, each as
    an in-process cli.main call with --json --seed CLI_SEED --out FILE."""

    def __init__(self, seed: int, smoke: bool = False):
        self.dir = WORK_DIR / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.algebra_dir = self.dir / "algebras"
        self.out = self.dir / "out.json"
        self.setup_result = PassResult()
        self.request("catalog", ["catalog", "--emit-json",
                                 str(self.algebra_dir)], self.setup_result)
        files = sorted(self.algebra_dir.glob("*.json"))
        if smoke:
            files = files[:2]
        rng = np.random.default_rng(seed)
        self.requests = []
        for path in files:
            n = json.loads(path.read_text())["dim"]
            x, y = _small_plane(rng, n)
            v = _small_vector(rng, n)
            u, w = _small_plane(rng, n)
            f = str(path)
            self.requests += [
                ("check", ["check", f]),
                ("ric", ["ric", f]),
                ("sect", ["sect", f, f"--plane={_fmt(x)};{_fmt(y)}"]),
                ("signsets-vector", ["signsets", f, f"--vector={_fmt(v)}"]),
                ("signsets-plane",
                 ["signsets", f, f"--plane={_fmt(u)};{_fmt(w)}"]),
                ("classify", ["classify", f]),
                ("maxmin", ["maxmin", f]),
            ]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def request(self, kind: str, argv: list[str], res: PassResult,
                tracer=None) -> Stopwatch:
        argv = argv + ["--json", "--seed", str(CLI_SEED), "--out",
                       str(self.out)]
        if self.out.exists():
            self.out.unlink()
        with Stopwatch() as watch, _operation(tracer, f"request:{kind}"):
            try:
                code = nilcurv.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a crash counts as a failed request
                code = f"{type(exc).__name__}: {exc}"
        request = " ".join([argv[0], Path(argv[1]).name] + argv[2:-5]
                           + ["--seed", str(CLI_SEED)])
        res.ops.append(request)
        if code != 0:
            res.failures[request] = f"exit {code}"
        if code == 2:
            res.mismatches.append(f"{request}: rejected as bad input")
        if code not in (0, 1):
            return watch
        try:
            data = strict_json(self.out.read_text())
        except (OSError, ValueError) as exc:
            res.mismatches.append(f"{request}: {exc}")
            return watch
        if data["config"]["command"] != argv[0] \
                or data["config"]["seed"] != CLI_SEED:
            res.mismatches.append(f"{request}: config echo {data['config']}")
        if kind == "check" and data.get("valid") is not True:
            res.mismatches.append(f"{request}: catalog algebra invalid")
        if kind == "catalog" and len(data["entries"]) != \
                len(catalog.list_catalog()):
            res.mismatches.append("catalog: wrong entry count")
        return watch

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        for kind, argv in self.requests:
            watch = self.request(kind, argv, res, tracer)
            res.add("light" if kind in LIGHT_COMMANDS else "heavy", watch)
        return res


# ---------------------------------------------------------------------------
# curvature-sweep


def _structure_tensor(algebra) -> np.ndarray:
    n = algebra.n
    c = np.zeros((n, n, n))
    for (i, j), comps in algebra.brackets.items():
        for k, v in comps.items():
            c[i, j, k] = float(v)
            c[j, i, k] = -float(v)
    return c


def milnor_scalar_curvature(c: np.ndarray, gram: np.ndarray) -> float:
    """Scalar curvature of a left-invariant metric on a nilpotent Lie
    algebra, -1/4 sum_ijk c_ijk^2 with c_ijk = <[F_i, F_j], F_k> in an
    orthonormal frame F (Milnor, Adv. Math. 21, 1976). The frame here
    comes from the eigendecomposition of the Gram matrix, not from the
    Cholesky frame the library uses."""
    w, v = np.linalg.eigh(gram)
    f = v / np.sqrt(w)
    brackets = np.einsum("ia,jb,ijk->abk", f, f, c)
    cf = np.einsum("abk,kl,lc->abc", brackets, gram, f)
    return -0.25 * float(np.sum(cf * cf))


class CurvatureSweep:
    """Per pass, for each non-abelian catalog algebra, 10 random metrics
    drawn from the seed; each metric gets ricci_operator, sectional_K on 8
    planes, deformed_ricci at t = 1, 4, 16 and one scaled_ricci_limit for
    a (+1^p, 0, -1^q) exponent pattern."""

    T_VALUES = (1.0, 4.0, 16.0)
    CHECK_RTOL = 1e-13
    PLANES = 8

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.metrics_per_algebra = 1 if smoke else 10
        self.algebras = [e.build() for e in catalog.list_catalog()]
        self.algebras = [a for a in self.algebras if not a.is_abelian()]
        self.tensors = [_structure_tensor(a) for a in self.algebras]

    def _pattern(self, n: int) -> np.ndarray:
        p = int(self.rng.integers(1, n - 1))
        q = int(self.rng.integers(2, n - p + 1))
        return np.concatenate([np.ones(p), np.zeros(n - p - q),
                               -np.ones(q)])

    def run_pass(self, tracer=None) -> PassResult:
        self.rng = np.random.default_rng(self.seed)  # same metrics each pass
        res = PassResult()
        for alg, c in zip(self.algebras, self.tensors):
            n = alg.n
            for k in range(self.metrics_per_algebra):
                xs = self.rng.normal(size=(self.PLANES, n))
                ys = self.rng.normal(size=(self.PLANES, n))
                lam = self._pattern(n)
                op = f"{alg.name}#{k}"
                res.ops.append(op)
                try:
                    with Stopwatch() as scalar, \
                            _operation(tracer, f"metric:{alg.name}"):
                        metric = curvature.Metric.random(n, self.rng)
                        ric = curvature.ricci_operator(alg, metric)
                        ks = [curvature.sectional_K(alg, metric, x, y)
                              for x, y in zip(xs, ys)]
                    with Stopwatch() as deform, \
                            _operation(tracer, f"deform:{alg.name}"):
                        spec = deformation.DeformationSpec(base=metric,
                                                           lambdas=lam)
                        deformed = [deformation.deformed_ricci(spec, alg, t)
                                    for t in self.T_VALUES]
                        deformation.scaled_ricci_limit(spec, alg)
                except Exception as exc:  # counted, the sweep goes on
                    res.failures[op] = repr(exc)
                    continue
                res.add("light", scalar)
                res.add("heavy", deform)
                with _paused(tracer):
                    bad = self._check(alg, c, metric, ric, ks, spec,
                                      deformed[0])
                if bad:
                    res.mismatches.append(f"{alg.name}: {bad}")
        return res

    @staticmethod
    def _check(alg, c, metric, ric, ks, spec, deformed_t1) -> str | None:
        """Float results agree with the references to RTOL times the
        condition number of the Gram matrix (the rounding error of both
        sides grows with it; about 7e-16 times it was the worst seen)."""
        if not all(np.isfinite(ks)):
            return "non-finite sectional curvature"
        rtol = CurvatureSweep.CHECK_RTOL * np.linalg.cond(metric.gram)
        scal = milnor_scalar_curvature(c, metric.gram)
        trace = float(np.trace(ric.operator))
        if abs(trace - scal) > rtol * (1.0 + abs(scal)):
            return f"Ricci trace {trace!r} != Milnor scalar {scal!r}"
        direct = curvature.ricci_operator(
            alg, deformation.deformed_metric(spec, 1.0)).eigenvalues
        diff = np.abs(deformed_t1.eigenvalues - direct).max()
        if diff > rtol * (1.0 + np.abs(direct).max()):
            return f"deformed_ricci(t=1) spectrum off by {diff:.3e}"
        return None


WORKLOADS = {
    "paper-suite": PaperSuite,
    "cli-catalog": CliCatalog,
    "curvature-sweep": CurvatureSweep,
}
