"""Bulk kernels behind the sectional-sign-planes, coverage,
deformation-limit and ric-sign-witnesses checks: the plane grid, the
exact plane labels, the batched and metric-stacked sectional curvature,
the doubling witness blocks, the stacked coverage candidates, the stacked
scaled limits and the stacked witness searches, each against the exact,
brute-force or scalar construction it replaces."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from nilcurv import (
    DeformationSpec,
    Metric,
    build,
    candidate_e1u2,
    classify_plane,
    curvature,
    list_catalog,
    scaled_ricci_limit,
    sectional_K,
    verify,
)
from nilcurv.deformation import (
    codim1_adapted_metric,
    deformed_ricci_frame,
    sphere_grid,
)
from nilcurv.rational import rank, rref
from nilcurv import deformation
from nilcurv import sign_sets as ss
from nilcurv.sign_sets import plane_labels
from nilcurv.verify import (
    COVERAGE_RESOLUTION,
    _grid_planes,
    _meets_center,
    coverage_grid_cases,
)
from test_curvature import u_operator

SMALL = [e.build() for e in list_catalog() if e.build().n <= 6]


def _rref_grid_planes(n):
    """The plane grid built by Fraction rref of every pair of directions."""
    vecs = []
    for v in itertools.product((-1, 0, 1), repeat=n):
        if not any(v):
            continue
        first = next(x for x in v if x)
        canon = v if first > 0 else tuple(-x for x in v)
        if canon not in vecs:
            vecs.append(canon)
    planes = {}
    for a, b in itertools.combinations(vecs, 2):
        red = rref([list(map(Fraction, a)), list(map(Fraction, b))])
        if len(red) == 2:
            planes.setdefault(tuple(tuple(r) for r in red), (a, b))
    return tuple(planes.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_planes_match_rref_construction(n):
    xs, ys = _grid_planes(n)
    assert xs.dtype == ys.dtype == np.int64
    assert not xs.flags.writeable and not ys.flags.writeable
    got = tuple(zip(map(tuple, xs.tolist()), map(tuple, ys.tolist())))
    assert got == _rref_grid_planes(n)


def _g2_by_search(alg, x, y) -> bool:
    """G2 from its definition, searched: some a3 = span(x, y, v) with v in
    {-1,0,1}^n is a three-dimensional abelian ideal and [g, a3] is a
    line."""
    c = np.rint(alg.structure_tensor()).astype(np.int64)
    vs = np.array(list(itertools.product((-1, 0, 1), repeat=alg.n)))
    # images[v] stacks [e_m, w] for w = x, y, v
    images = np.concatenate(
        [np.broadcast_to(np.einsum("j,mjk->mk", w, c),
                         (len(vs), alg.n, alg.n))
         for w in (x, y)] + [np.einsum("vj,mjk->vmk", vs, c)], axis=1)
    p = images[np.arange(len(vs)),
               np.argmax(np.any(images, axis=2), axis=1)]
    line = np.any(p, axis=1) & np.all(
        np.sum(images * images, axis=2) * np.sum(p * p, axis=1)[:, None]
        == np.sum(images * p[:, None, :], axis=2) ** 2, axis=1)
    for v, q in zip(vs[line], p[line]):
        a3 = [list(map(Fraction, w)) for w in (x, y, v)]
        if rank(a3) == 3 and rank(a3 + [list(map(Fraction, q))]) == 3 \
                and not any(alg.bracket(a3[2], w) != [0] * alg.n
                            for w in a3[:2]):
            return True
    return False


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_bulk_labels_agree_with_classify_plane(alg):
    """G1 of the bulk labels against the center basis, and classify_plane
    against the bulk labels and G2 against a brute search of its
    definition, on a seeded sample of the abelian grid planes that meet
    the center and of those that miss it."""
    xs, ys = _grid_planes(alg.n)
    planes = list(zip(xs.tolist(), ys.tolist()))
    labels = plane_labels(alg, xs, ys)
    assert np.array_equal(labels["G1"], _meets_center(alg, xs, ys))
    abelian = np.nonzero(labels["abelian"])[0]
    rng = np.random.default_rng(len(planes) + len(abelian))
    for part in (abelian[~labels["G1"][abelian]],
                 abelian[labels["G1"][abelian]]):
        for i in rng.choice(part, size=min(25, len(part)), replace=False):
            x, y = planes[i]
            exact = classify_plane(alg, list(x), list(y))
            assert labels["G_geq"][i] == ("G_geq" in exact), planes[i]
            assert labels["G1"][i] == ("G1" in exact), planes[i]
            assert ("G2" in exact) == _g2_by_search(alg, x, y), planes[i]


@pytest.mark.parametrize("alg", [a for a in SMALL if a.n <= 5],
                         ids=lambda a: a.name)
def test_plane_labels_int64_and_python_int_agree(alg):
    """Scaling a spanning vector changes no label; scaled by 7 the labels
    stay in int64, scaled by 10^13 they are computed in Python ints."""
    xs, ys = _grid_planes(alg.n)
    want = plane_labels(alg, xs, ys)
    for factor in (7, 10 ** 13):
        got = plane_labels(alg, xs.astype(object) * factor, ys)
        for name in want:
            assert np.array_equal(got[name], want[name]), (factor, name)


def test_bulk_labels_on_heisenberg3():
    alg = next(a for a in SMALL if a.name == "heisenberg3")
    xs = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    ys = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 1]], dtype=np.int64)
    labels = plane_labels(alg, xs, ys)
    assert labels["abelian"].tolist() == [False, True, False]
    assert labels["G1"].tolist() == [False, True, False]
    assert labels["G_geq"].tolist() == [False, True, False]


def _reference_K(alg, metric, x, y):
    """K(x, y) term by term from the U-operator and the brackets."""
    uxy = u_operator(alg, metric, x, y)
    uxx = u_operator(alg, metric, x, x)
    uyy = u_operator(alg, metric, y, y)
    bxy = alg.bracket_float(x, y)
    return (metric.norm2(uxy) - metric.inner(uxx, uyy)
            - 0.75 * metric.norm2(bxy)
            - 0.5 * metric.inner(alg.bracket_float(x, bxy), y)
            - 0.5 * metric.inner(alg.bracket_float(y, -bxy), x))


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_batch_K_matches_scalar_sectional_K(alg, monkeypatch):
    monkeypatch.setattr(curvature, "_CHUNK", 16)    # several blocks per call
    rng = np.random.default_rng(alg.n)
    xs, ys = _grid_planes(alg.n)
    pick = rng.choice(len(xs), size=min(60, len(xs)), replace=False)
    xs, ys = xs[pick].astype(float), ys[pick].astype(float)
    for _ in range(3):
        metric = Metric.random(alg.n, rng)
        got = sectional_K(alg, metric, xs, ys)
        want = np.array([_reference_K(alg, metric, x, y)
                         for x, y in zip(xs, ys)])
        scale = np.abs(want).max() + 1.0
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10 * scale)
        one = sectional_K(alg, metric, xs[0], ys[0])
        assert isinstance(one, float)
        assert abs(one - want[0]) <= 1e-8 * abs(want[0]) + 1e-10 * scale


@pytest.mark.parametrize("chunk", [4096, 16, 5, 2])
@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_stacked_K_rows_are_their_single_metric_calls(alg, chunk,
                                                     monkeypatch):
    """Each row of sectional_K on a stack of 7 metrics is its
    single-metric call to the bit, at plane counts on and off the block
    boundaries of both calls (_CHUNK // 7 and _CHUNK planes)."""
    monkeypatch.setattr(curvature, "_CHUNK", chunk)
    rng = np.random.default_rng(alg.n + chunk)
    xs, ys = _grid_planes(alg.n)
    factors = rng.uniform(-1.0, 1.0, size=(7, alg.n, alg.n))
    stack = Metric.from_factor(factors)
    for size in (2, 3, 17, 33, 100):
        pick = rng.choice(len(xs), size=min(size, len(xs)), replace=False)
        x, y = xs[pick].astype(float), ys[pick].astype(float)
        got = sectional_K(alg, stack, x, y)
        assert got.shape == (7, len(x))
        for row, b in zip(got, factors):
            assert np.array_equal(
                row, sectional_K(alg, Metric.from_factor(b), x, y))


def test_one_plane_against_a_stack_gives_one_value_per_metric():
    alg = build("filiform4")
    factors = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2, 3, 4, 4))
    x, y = np.array([1.0, 0, 1, 0]), np.array([0, 1.0, 0, -1])
    got = sectional_K(alg, Metric.from_factor(factors), x, y)
    assert got.shape == (2, 3)
    assert sectional_K(alg, Metric.from_factor(factors[0]), x, y).shape \
        == (3,)
    for i, j in itertools.product(range(2), range(3)):
        assert got[i, j] == sectional_K(
            alg, Metric.from_factor(factors[i, j]), x, y)


BENCH_SECT = ("abelian3", "heisenberg3", "h3xA1", "filiform4", "L5_lemma7a")


def _witness_one_at_a_time(alg, rng, xs, ys, ceiling):
    """Reference: the bulk witness stage one Metric.random at a time, each
    on the planes no earlier metric witnessed."""
    left = np.arange(len(xs))
    for _ in range(verify.BULK_WITNESS_METRICS):
        if not len(left):
            break
        metric = Metric.random(alg.n, rng)
        left = left[~(sectional_K(alg, metric, xs[left], ys[left])
                      < ceiling)]
    return left


@pytest.mark.parametrize("seed", [0, 7])
def test_witness_blocks_match_the_one_at_a_time_loop(seed):
    """On the benchmark's sectional sub-catalog, in catalog order and with
    one rng per side, the doubling blocks leave the same unwitnessed
    planes and the same rng state as the loop. The last plane is
    witnessed inside a block on heisenberg3 (metric 67 at seed 0), and at
    seed 0 L5_lemma7a keeps 5 planes past all BULK_WITNESS_METRICS."""
    algebras = [e.build() for e in list_catalog() if e.label in BENCH_SECT]
    assert [a.name for a in algebras] == list(BENCH_SECT)
    loop, blocks = np.random.default_rng(seed), np.random.default_rng(seed)
    for alg in algebras:
        xs, ys = _grid_planes(alg.n)
        outside = ~plane_labels(alg, xs, ys)["G_geq"]
        xs, ys = xs[outside].astype(float), ys[outside].astype(float)
        want = _witness_one_at_a_time(alg, loop, xs, ys, -1e-9)
        got = verify._witness_in_blocks(alg, blocks, xs, ys, -1e-9)
        assert np.array_equal(got, want), alg.name
        assert blocks.bit_generator.state == loop.bit_generator.state


def _filiform4_loop():
    """Reference: the filiform4 coverage candidates one grid line at a
    time, through the scalar calls."""
    alg = build("filiform4")
    ideal = alg.find_codim1_abelian_ideal()
    c_vec = np.array(ideal.complement()[0], float)
    cands = []
    for gdir in sphere_grid(ideal, COVERAGE_RESOLUTION):
        u1 = gdir / np.linalg.norm(gdir)
        metric, e = codim1_adapted_metric(alg, c_vec, u1)
        cand = candidate_e1u2(alg, metric, e, u1, c_vec)
        if not cand.is_zero:
            cands.append(cand.T)
    return np.array(cands)


def test_filiform4_grid_lines_have_nonzero_c_c_u1():
    """[c, [c, u1]] is far from 0 on every unit u1 of the filiform4 grid
    that coverage_grid_cases uses (its minimum is about 9e-4), so the
    Lemma 5 construction takes each line as it is."""
    alg = build("filiform4")
    c_vec = np.array(alg.find_codim1_abelian_ideal().complement()[0], float)
    grid, _ = coverage_grid_cases(0)["filiform4"]
    u1 = grid / np.linalg.norm(grid, axis=1)[:, None]
    cc = alg.bracket_float(c_vec, alg.bracket_float(c_vec, u1))
    assert len(grid) == 799
    assert np.linalg.norm(cc, axis=1).min() > 1e-8


def test_filiform4_coverage_stack_matches_the_loop():
    """All 799 filiform4 candidates of the stacked pass equal the loop's
    to 1e-12 of max|T|."""
    _, got = coverage_grid_cases(0)["filiform4"]
    want = _filiform4_loop()
    assert got.shape == want.shape == (799, 4)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("seed", range(10))
def test_filiform4_spectrum_stack_is_the_scalar_rounds(seed, monkeypatch):
    """The one stacked Ricci operator of filiform4-spectrum has, per row,
    the spectrum of that draw's scalar round to the bit, so its report is
    the loop's."""
    reports = []

    def kept(alg, metric):
        reports.append(curvature.ricci_operator(alg, metric))
        return reports[-1]
    monkeypatch.setattr(verify, "ricci_operator", kept)
    assert verify.check_filiform4_spectrum(seed)["passed"]
    (report,) = reports
    spectra = report.eigenvalues
    assert spectra.shape == (10, 4)
    alg, rng = build("filiform4"), np.random.default_rng(seed)
    for row in spectra:
        basis = np.eye(4)
        basis[1:, 0] = rng.uniform(-2.0, 2.0, size=3)
        want = curvature.ricci_operator(alg, Metric.orthonormalizing(basis))
        assert row.tobytes() == want.eigenvalues.tobytes()


def _deformation_limit_loop(seed):
    """Reference: the deformation-limit report, without its runtime, one
    (metric, pattern) draw at a time through scalar specs."""
    mat_tol, eig_tol = 1e-6, 1e-9
    rng = np.random.default_rng(seed)
    failures = []
    worst_mat = worst_eig = 0.0
    for entry in list_catalog():
        alg = entry.build()
        n = alg.n
        if n > 7:
            continue
        for _ in range(10):
            metric = Metric.random(n, rng)
            p = int(rng.integers(1, max(2, n - 2)))
            q = int(rng.integers(2, max(3, n - p + 1)))
            lam = np.concatenate([np.ones(p), np.zeros(n - p - q),
                                  -np.ones(q)])
            spec = DeformationSpec(base=metric, lambdas=lam)
            limit = scaled_ricci_limit(spec, alg)
            t = 40.0 / limit.gap if np.isfinite(limit.gap) else 5.0
            diff = np.abs(2.0 * np.exp(-limit.d * t)
                          * deformed_ricci_frame(spec, alg, t)
                          - limit.phi0).max()
            worst_mat = max(worst_mat, float(diff))
            ev = limit.phi0_eigenvalues()
            block_ev = np.sort(np.concatenate(
                [np.linalg.eigvalsh(limit.A), np.zeros(n - p - q),
                 np.linalg.eigvalsh(limit.sum_J_squared())]))
            eig_diff = float(np.abs(ev - block_ev).max())
            worst_eig = max(worst_eig, eig_diff)
            if diff > mat_tol or eig_diff > eig_tol:
                failures.append({"algebra": alg.name, "p": p, "q": q,
                                 "matrix_diff": float(diff),
                                 "eig_diff": eig_diff})
    return {"name": "deformation-limit", "passed": not failures,
            "details": {"failures": failures, "worst_matrix_diff": worst_mat,
                        "worst_eig_diff": worst_eig},
            "tolerances": {"matrix_sup": mat_tol, "eigenvalue_abs": eig_tol}}


def test_deformation_limit_draws_fit_every_catalog_n():
    """Every (p, q) the draw rule of check_deformation_limit can give, p
    from integers(1, max(2, n - 2)) and then q from
    integers(2, max(3, n - p + 1)), has p + q <= n, for every catalog
    n <= 7, so a draw needs no fallback pattern."""
    dims = sorted({e.build().n for e in list_catalog()} & set(range(8)))
    assert dims and dims[0] >= 3
    for n in dims:
        draws = [(p, q) for p in range(1, max(2, n - 2))
                 for q in range(2, max(3, n - p + 1))]
        assert draws and all(p + q <= n for p, q in draws), (n, draws)


@pytest.mark.parametrize("seed", range(10))
def test_deformation_limit_report_is_the_loop_report(seed):
    """The grouped check's report, without its runtime, is the per-draw
    loop's byte for byte: the verdict rests on rounding at the 1e-9
    level, so agreement to a tolerance would not do."""
    got = verify.check_deformation_limit(seed)
    del got["runtime_s"]
    assert json.dumps(got) == json.dumps(_deformation_limit_loop(seed))


def test_deformation_limit_takes_one_limit_per_algebra(monkeypatch):
    """check_deformation_limit calls scaled_ricci_limit once per catalog
    algebra with n <= 7, on one spec of all its 10 draws with one
    exponent pattern per row."""
    calls = []

    def counted(spec, alg):
        calls.append((alg.name, len(spec.base), spec.lambdas.shape))
        return scaled_ricci_limit(spec, alg)
    monkeypatch.setattr(verify, "scaled_ricci_limit", counted)
    verify.check_deformation_limit(seed=0)
    algebras = [e.build() for e in list_catalog()]
    assert calls == [(a.name, 10, (10, a.n)) for a in algebras if a.n <= 7]


def test_deformation_limit_builds_each_frame_tensor_once(monkeypatch):
    """check_deformation_limit computes one frame tensor per limit, that
    is per algebra: the deformed operator reuses the limit's."""
    limits, tensors = [], []

    def counted(calls, fn):
        def run(*args):
            calls.append(1)
            return fn(*args)
        return run
    monkeypatch.setattr(verify, "scaled_ricci_limit",
                        counted(limits, scaled_ricci_limit))
    monkeypatch.setattr(deformation, "frame_structure",
                        counted(tensors, curvature.frame_structure))
    verify.check_deformation_limit(seed=0)
    assert len(tensors) == len(limits) > 0


def _ric_witnesses_loop(seed):
    """Reference: the ric-sign-witnesses report, without its runtime, with
    one witness search per target, drawn and searched in turn."""
    pos_tol, metrics_per_x = 1e-12, 50
    rng = np.random.default_rng(seed)
    failures = []
    for entry in list_catalog():
        alg = entry.build()
        if alg.is_abelian():
            continue
        n = alg.n
        z = alg.center()
        gp = alg.derived_algebra()
        central_derived = gp.intersection(z)
        xs = np.array([verify._random_central_derived(central_derived, rng)
                       for _ in range(20)])
        r = curvature.ricci_form_matrix(alg, Metric.from_factor(
            rng.uniform(-1.0, 1.0, size=(metrics_per_x, n, n))))
        values = np.einsum("xi,mij,xj->mx", xs, r, xs)
        for m, k in np.argwhere(values <= pos_tol):
            failures.append({"algebra": alg.name, "part": "i",
                             "x": xs[k].tolist(),
                             "value": float(values[m, k])})
        for _ in range(20):
            while True:
                x = [Fraction(int(v)) for v in rng.integers(-3, 4, size=n)]
                if any(v != 0 for v in x) and not z.contains(x):
                    break
            try:
                w = ss.find_negative_ric_witness(alg, [float(v) for v in x])
                if w.value >= -1e-9:
                    raise ss.WitnessSearchError("value not negative")
            except ss.WitnessSearchError as exc:
                failures.append({"algebra": alg.name, "part": "ii",
                                 "x": [str(v) for v in x],
                                 "error": str(exc)})
        targets = []
        for k in range(20):
            if k % 5 == 0 and z.dim > central_derived.dim:
                while True:
                    cz = rng.integers(-3, 4, size=z.dim)
                    v = [sum(Fraction(int(c)) * row[i]
                             for c, row in zip(cz, z.basis))
                         for i in range(n)]
                    if any(t != 0 for t in v) and not gp.contains(v):
                        targets.append(np.array([float(t) for t in v]))
                        break
            else:
                while True:
                    v = rng.integers(-3, 4, size=n)
                    if np.any(v):
                        targets.append(v.astype(float))
                        break
        for zv in targets:
            try:
                w = ss.find_positive_ric_witness(alg, zv)
                if w.value <= 0:
                    raise ss.WitnessSearchError("value not positive")
                if w.t is not None:
                    rel = abs(w.scaled_value - w.scaled_target) \
                        / abs(w.scaled_target)
                    if rel > 0.05:
                        raise ss.WitnessSearchError(
                            f"scaled limit off by {rel:.3f}")
            except (ss.WitnessSearchError, ss.PreconditionError) as exc:
                failures.append({"algebra": alg.name, "part": "iii",
                                 "z": zv.tolist(), "error": str(exc)})
    return {"name": "ric-sign-witnesses", "passed": not failures,
            "details": {"failures": failures[:20],
                        "failure_count": len(failures)},
            "tolerances": {"positive_floor": pos_tol, "negative_floor": -1e-9,
                           "scaled_limit_rel": 0.05}}


@pytest.mark.parametrize("seed", range(10))
def test_ric_witnesses_report_is_the_loop_report(seed):
    """The stacked searches give the per-target loop's report byte for
    byte."""
    got = verify.check_ric_witnesses(seed)
    del got["runtime_s"]
    assert json.dumps(got) == json.dumps(_ric_witnesses_loop(seed))


def test_ric_witnesses_search_once_per_algebra_and_part(monkeypatch):
    """check_ric_witnesses runs part (ii) as one stacked negative search
    and part (iii) as one stacked positive search per non-abelian
    algebra, each on the part's 20 targets."""
    calls = []

    def counted(search):
        def run(alg, targets):
            calls.append((search.__name__, alg.name, np.shape(targets)))
            return search(alg, targets)
        return run
    for name in ("find_negative_ric_witness", "find_positive_ric_witness"):
        monkeypatch.setattr(ss, name, counted(getattr(ss, name)))
    verify.check_ric_witnesses(seed=0)
    names = [e.build() for e in list_catalog() if not e.build().is_abelian()]
    assert calls == [(search, a.name, (20, a.n)) for a in names
                     for search in ("find_negative_ric_witness",
                                    "find_positive_ric_witness")]
