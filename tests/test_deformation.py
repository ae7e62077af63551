"""Metric deformations, scaled Ricci limits, and closed-form extremal
candidates, each cross-checked against an independent direct computation."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcurv import (
    CandidateError,
    ConvergenceTrace,
    DeformationSpec,
    Metric,
    NilpotentAlgebra,
    OverflowGuardError,
    Subspace,
    build,
    candidate_e1u2,
    candidate_T1_T2,
    complement_frame,
    convergence_check,
    deformed_ricci,
    extremal_T,
    lemma5_candidates,
    list_catalog,
    lemma5a_deformation,
    projective_distance,
    ricci_operator,
    save_algebra,
    scaled_ricci_limit,
    spec_for_pattern,
    theorem2_expected_M,
    two_step_deformation,
    worst_gap,
)
from nilcurv import cli, curvature, deformation
from nilcurv.deformation import (
    BASIS_RANK_TOL,
    ExtremalCandidate,
    _eu_checks,
    complete_basis,
    deformed_metric,
    deformed_ricci_frame,
    orthonormal_tol,
    sphere_grid,
    stack_pairs,
)
from nilcurv.curvature import raise_first_failure
from nilcurv.verify import coverage_grid_cases


def _spec(alg, lambdas, seed=0):
    rng = np.random.default_rng(seed)
    return DeformationSpec(base=Metric.random(alg.n, rng),
                           lambdas=np.asarray(lambdas, float))


def test_two_path_equality():
    """deformed_ricci agrees with ricci_operator of the deformed Gram."""
    alg = build("filiform_standard", n=5)
    spec = _spec(alg, [1.0, 0.5, 0.0, -0.5, -1.0], seed=2)
    for t in (0.0, 0.7, 2.0):
        direct = ricci_operator(alg, deformed_metric(spec, t))
        via = deformed_ricci(spec, alg, t)
        assert np.abs(np.sort(direct.eigenvalues)
                      - np.sort(via.eigenvalues)).max() \
            < 1e-8 * (np.abs(direct.eigenvalues).max() + 1.0)


def test_deformed_metric_at_zero_is_base():
    alg = build("heisenberg", m=1)
    spec = _spec(alg, [1.0, -1.0, 0.0], seed=3)
    assert np.abs(deformed_metric(spec, 0.0).gram - spec.base.gram).max() \
        < 1e-12


def test_overflow_guard():
    alg = build("heisenberg", m=1)
    spec = _spec(alg, [1.0, -1.0, 0.0])
    with pytest.raises(OverflowGuardError):
        deformed_ricci(spec, alg, 1e6)


def test_scaled_limit_block_spectrum():
    """eig(Phi0) = eig(A) u {0}^(n-p-q) u eig(sum J_k^2) for (p, q)
    patterns, and 2 e^{-td} ric_t approaches Phi0."""
    rng = np.random.default_rng(5)
    for key, params, p, q in (("heisenberg", {"m": 2}, 1, 4),
                              ("L5_lemma7a", {}, 2, 3),
                              ("L6_2", {}, 3, 3)):
        alg = build(key, **params)
        n = alg.n
        lambdas = np.array([1.0] * p + [0.0] * (n - p - q) + [-1.0] * q)
        spec = DeformationSpec(base=Metric.random(n, rng), lambdas=lambdas)
        limit = scaled_ricci_limit(spec, alg)
        assert limit.has_block_structure and (limit.p, limit.q) == (p, q)
        expected = np.concatenate([
            np.linalg.eigvalsh(limit.A),
            np.zeros(n - p - q),
            np.linalg.eigvalsh(limit.sum_J_squared())])
        got = np.linalg.eigvals(limit.phi0).real  # block triangular
        assert np.abs(np.sort(expected) - np.sort(got)).max() < 1e-9
        t = 40.0 / limit.gap
        approx = 2.0 * np.exp(-t * limit.d) * deformed_ricci_frame(
            spec, alg, t)
        assert np.abs(approx - limit.phi0).max() < 1e-6


@pytest.mark.parametrize("lam", [
    ("1/3", "1/6", "-1/6", "-1/3"),
    ("1/3", "1/3", "-1/6", "1/3"),
    ("1/10", "2/10", "-3/10", "7/10", "-1/3"),
])
def test_lambda_triples_match_exact_exponents(lam):
    """Lambda, d and the gap of non-dyadic exponents agree with the same
    sums over Q. At (1/3, 1/3, -1/6, 1/3) the nine maximizing triples
    differ by one ulp in float: ties come from the tolerance alone."""
    exact = [Fraction(x) for x in lam]
    n = len(exact)
    vals = {(i, j, k): exact[k] - exact[i] - exact[j]
            for i in range(n) for j in range(i) for k in range(n)}
    d = max(vals.values())
    runner_up = max(v for v in vals.values() if v != d)
    d_got, mask, gap = deformation._lambda_triples(
        np.array([float(x) for x in exact]))
    assert mask.shape == (n, n, n)
    assert [tuple(t) for t in np.argwhere(mask).tolist()] \
        == sorted(t for t, v in vals.items() if v == d)
    assert abs(d_got - float(d)) <= 1e-15
    assert abs(gap - float(d - runner_up)) <= 1e-15


def test_extremal_T_satisfies_limit_eigen_equation():
    alg = build("L5_lemma7a")
    rng = np.random.default_rng(6)
    spec = DeformationSpec(base=Metric.random(5, rng),
                           lambdas=np.array([1.0, 1.0, -1.0, -1.0, -1.0]))
    limit = scaled_ricci_limit(spec, alg)
    cand = extremal_T(limit)
    tf = np.linalg.solve(spec.frame, cand.T)
    resid = np.abs(limit.phi0 @ tf - cand.lambda_extreme * tf).max()
    assert resid < 1e-8 * (np.abs(tf).max() + 1.0)


def test_candidate_two_step_h3():
    alg = build("heisenberg", m=1)
    metric = Metric.identity(3)
    z = np.array([0.0, 0.0, 1.0])
    spec, cand = two_step_deformation(alg, metric, z)
    assert np.abs(cand.T - 2.0 * z).max() < 1e-12
    trace = convergence_check(spec, alg, cand)
    assert trace.converged and trace.best_distance() < 1e-4


def test_candidate_two_step_irrational_unit_in_derived_algebra():
    """e = (0, 0, 1, 3)/sqrt(10) spans g' of [X, Y] = Z1 + 3 Z2, and
    T = 2 <e, [X, Y]> [X, Y] = 20 e with top eigenvalue
    <e, [X, Y]>^2 = 10; a unit vector off g' is rejected."""
    alg = NilpotentAlgebra(4, {(0, 1): {2: 1, 3: 3}})
    e = np.array([0.0, 0.0, 1.0, 3.0]) / np.sqrt(10.0)
    cand = two_step_deformation(alg, Metric.identity(4), e)[1]
    assert np.abs(cand.T - 20.0 * e).max() < 1e-12
    assert abs(cand.lambda_extreme - 10.0) < 1e-12
    off = np.array([0.0, 0.0, 3.0, -1.0]) / np.sqrt(10.0)
    with pytest.raises(CandidateError, match="derived algebra"):
        two_step_deformation(alg, Metric.identity(4), off)


def test_two_step_eigenvalue_is_the_scaled_limit_top():
    """On every two-step catalog algebra and random metrics, the two-step
    candidate reports the top eigenvalue that extremal_T reads off the
    scaled limit of its own deformation."""
    rng = np.random.default_rng(3)
    for entry in list_catalog("two-step"):
        alg = entry.build()
        if alg.is_abelian():
            continue
        gp = np.array(alg.derived_algebra().basis, float)
        for _ in range(5):
            metric = Metric.random(alg.n, rng)
            e = rng.uniform(-1.0, 1.0, gp.shape[0]) @ gp
            spec, cand = two_step_deformation(
                alg, metric, e / np.sqrt(metric.norm2(e)))
            top = extremal_T(scaled_ricci_limit(spec, alg))
            assert abs(cand.lambda_extreme - top.lambda_extreme) \
                <= 1e-9 * top.lambda_extreme, entry.key


def test_lemma5a_filiform4():
    """<Z, [W, X]> = 0 on filiform4: the top limit eigenvalue is not
    simple, so there is no deformation to check T against."""
    alg = build("filiform4")
    metric = Metric.identity(4)
    w, x, _, z = (np.eye(4)[:, i] for i in range(4))
    with pytest.raises(CandidateError, match="not simple"):
        lemma5a_deformation(alg, metric, z, w, x)


def test_stacked_lemma5a_deformation_is_its_single_calls():
    """Two filiform4 rows, u1 = e2 and 0.6 e2 + 0.8 e3 with u2 = e1: each
    row of the stacked spec and candidate is its single call to the bit,
    and a stack with a row where <e, [u1, u2]> = 0 raises that row's
    single message."""
    alg = build("filiform4")
    eye = np.eye(4)
    e = np.array([eye[2], [0.0, -0.8, 0.6, 0.0]])
    u1 = np.array([eye[1], [0.0, 0.6, 0.8, 0.0]])
    u2 = np.array([eye[0], eye[0]])
    metric = Metric(np.stack([eye, eye]))
    spec, cand = lemma5a_deformation(alg, metric, e, u1, u2)
    for r in range(2):
        one_spec, one = lemma5a_deformation(alg, Metric.identity(4), e[r],
                                            u1[r], u2[r])
        assert spec.frame[r].tobytes() == one_spec.frame.tobytes()
        assert np.array_equal(spec.lambdas, one_spec.lambdas)
        assert cand.T[r].tobytes() == one.T.tobytes()
        assert cand.lambda_extreme[r] == one.lambda_extreme
        assert cand.simple[r] == one.simple
    bad = np.array([eye[2], eye[3]])       # <e4, [e3, e1]> = 0 in row 1
    with pytest.raises(CandidateError) as single:
        lemma5a_deformation(alg, Metric.identity(4), bad[1], u1[0], u2[0])
    with pytest.raises(CandidateError) as stacked:
        lemma5a_deformation(alg, metric, bad, u1[[0, 0]], u2)
    assert str(stacked.value) == str(single.value)
    assert "not simple" in str(single.value)


def _model_filiform(n):
    """m0(n): [X1, Xi] = X(i+1) for 2 <= i < n."""
    return NilpotentAlgebra(n, {(0, i): {i + 1: Fraction(1)}
                                for i in range(1, n - 1)}, name=f"m0({n})")


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_lemma5_candidates_converge_on_model_filiform(n):
    """With e = [c, u1] every codimension-one candidate lies in P(a) and
    is the limit of the maximal direction of its own deformation."""
    alg = _model_filiform(n)
    ideal = alg.find_codim1_abelian_ideal()
    for seed in range(4):
        pairs, notes = lemma5_candidates(alg, seed, 10)
        assert len(pairs) == 10 and notes == []
        for cand, spec in pairs:
            assert ideal.contains_float(cand.T)
            assert convergence_check(spec, alg, cand).best_distance() \
                <= 1e-8, (n, seed)


@pytest.mark.parametrize("key, params, construction", [
    ("heisenberg", {"m": 2}, "two_step"),
    ("filiform4", {}, "e1u2"),
    ("filiform_standard", {"n": 5}, None),
])
def test_lemma5_candidates_follow_the_structure(key, params, construction):
    """Two-step and codimension-one abelian algebras get one candidate per
    sample, each with the deformation it is checked against and inside
    the Theorem 2 subspace, the same at the same seed; any other algebra
    gets only a note."""
    alg = build(key, **params)
    pairs, notes = lemma5_candidates(alg, 3, 6)
    if construction is None:
        assert pairs == [] and notes[0].startswith("no closed-form")
        return
    expected = theorem2_expected_M(alg)
    assert len(pairs) == 6 and notes == []
    for cand, spec in pairs:
        assert cand.construction == construction and cand.simple
        assert isinstance(spec, DeformationSpec)
        assert expected.contains_float(cand.T)
    again, _ = lemma5_candidates(alg, 3, 6)
    assert all(np.array_equal(c.T, d.T) for (c, _), (d, _) in
               zip(pairs, again))


def test_candidate_e1u2_requires_orthonormal():
    alg = build("filiform4")
    metric = Metric.identity(4)
    with pytest.raises(CandidateError):
        candidate_e1u2(alg, metric, np.eye(4)[:, 3], np.eye(4)[:, 3],
                       np.eye(4)[:, 0])


def candidate_min_u1(algebra, metric, e1, e2, u1, u2, u3):
    """The paper's Ricci-minimal candidate u1; its min eigenvalue
    -a^2 - b^2 is always simple since it lies strictly below both -a^2
    and -b^2."""
    _, a, b, checks = _eu_checks(algebra, metric, e1, e2, u1, u2, u3)
    raise_first_failure(CandidateError, checks)
    return ExtremalCandidate(T=u1, lambda_extreme=-(a * a + b * b),
                             construction="eumin", simple=True, kind="min")


def test_candidate_min_u1_converges():
    from nilcurv import normal_form_frame
    frame = normal_form_frame("L5_lemma7a", (1.0, 0.5, 2.0))
    cand = candidate_min_u1(frame.algebra, frame.metric,
                            *frame.e_vectors, *frame.u_vectors)
    assert cand.kind == "min" and cand.simple
    trace = convergence_check(frame.spec(), frame.algebra, cand)
    assert trace.converged


def test_candidate_T1_T2_requires_a_gt_b():
    from nilcurv import normal_form_frame
    frame = normal_form_frame("L5_lemma7a", (1.0, 1.0, 1.0))
    t1, t2 = candidate_T1_T2(frame.algebra, frame.metric,
                             *frame.e_vectors, *frame.u_vectors)
    assert t1.construction == "e2u3_T1" and t2.construction == "e2u3_T2"


def test_projective_distance_properties():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.uniform(-1, 1, 5)
        v = rng.uniform(-1, 1, 5)
        d = projective_distance(u, v)
        assert 0.0 <= d <= 1.0
        assert projective_distance(u, -3.0 * u) < 1e-7
        assert abs(projective_distance(u, v)
                   - projective_distance(v, u)) < 1e-12
    with pytest.raises(ValueError):
        projective_distance(np.zeros(3), np.ones(3))


def test_projective_distance_of_nearly_parallel_lines():
    """u and u + 1e-12 w with w a unit vector orthogonal to u are about
    1e-12 apart: sqrt(1 - cos^2) gives 0 or a multiple of sqrt(eps)."""
    u = np.array([0.6, 0.8, 0.0])
    for w in (np.array([-0.8, 0.6, 0.0]), np.array([0.0, 0.0, 1.0])):
        d = projective_distance(u, u + 1e-12 * w)
        assert abs(d - 1e-12) < 1e-15


def test_projective_distance_rows_are_their_single_calls():
    """Rows of u and v, strided or broadcast, give each pair's distance
    bitwise as its single call, the float that call returns."""
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        u = rng.standard_normal((40, n)) * 10.0 ** rng.integers(-6, 6, (40, n))
        v = np.where(rng.random((40, 1)) < 0.5, u + 1e-9 * rng.standard_normal(
            (40, n)), rng.standard_normal((40, n)))
        strided = np.asfortranarray(u)
        rows = projective_distance(strided, v)
        assert rows.shape == (40,)
        for i in range(40):
            one = projective_distance(u[i], v[i])
            assert isinstance(one, float) and rows[i] == one
        assert np.array_equal(projective_distance(u, v[0]),
                              [projective_distance(x, v[0]) for x in u])
    with pytest.raises(ValueError):
        projective_distance(np.ones((2, 3)), np.zeros(3))


def test_convergence_rejects_non_simple():
    alg = build("filiform4")
    metric = Metric.identity(4)
    w, x, _, z = (np.eye(4)[:, i] for i in range(4))
    cand = candidate_e1u2(alg, metric, z, w, x)  # <z,[w,x]> = 0: not simple
    assert not cand.simple
    spec = spec_for_pattern(alg, metric, [z], [w, x])
    with pytest.raises(CandidateError):
        convergence_check(spec, alg, cand)


def _ladder_result(spec, alg, cand):
    """convergence_check of one row: its (rows, converged), or the class
    and message of the error it raises."""
    try:
        trace = convergence_check(spec, alg, cand)
    except CandidateError as exc:
        return type(exc), str(exc)
    return trace.rows, trace.converged


def test_stacked_ladder_rows_are_their_single_calls():
    """A non-simple and a zero candidate in the middle of a stack get the
    CandidateError class and message of their single calls; the other
    rows keep their single calls' traces, as they have without them."""
    alg = build("heisenberg", m=2)
    pairs, _ = lemma5_candidates(alg, 0, 5)
    (c2, s2), (c3, s3) = pairs[2], pairs[3]
    pairs[2] = (dataclasses.replace(c2, simple=False), s2)
    pairs[3] = (dataclasses.replace(c3, T=np.zeros(alg.n)), s3)
    cand, spec = stack_pairs(pairs)
    results = convergence_check(spec, alg, cand)
    assert [type(r) for r in results] == [
        ConvergenceTrace, ConvergenceTrace, CandidateError, CandidateError,
        ConvergenceTrace]
    for (one, one_spec), got in zip(pairs, results):
        want = _ladder_result(one_spec, alg, one)
        if isinstance(got, CandidateError):
            assert (type(got), str(got)) == want
        else:
            assert (got.rows, got.converged) == want
    clean = stack_pairs(pairs[:2] + pairs[4:])
    assert [r.rows for r in convergence_check(clean[1], alg, clean[0])] \
        == [r.rows for i, r in enumerate(results) if i not in (2, 3)]


def test_maxmin_runs_one_ladder_per_request(tmp_path, monkeypatch):
    """maxmin on an algebra with candidates builds one frame tensor and
    runs one convergence_check, however many candidates it checks."""
    calls = {"frame_structure": 0, "convergence_check": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (curvature, deformation, cli):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    counted(name, getattr(mod, name)))
    path = tmp_path / "h5.json"
    save_algebra(build("heisenberg", m=2), path)
    for seed in (0, 105):
        calls.update(frame_structure=0, convergence_check=0)
        assert cli.main(["maxmin", str(path), "--seed", str(seed),
                         "--json", "--out", str(tmp_path / "out.json")]) == 0
        assert calls == {"frame_structure": 1, "convergence_check": 1}


def test_lemma5_candidates_on_an_abelian_algebra():
    """An abelian algebra gets no pairs and a note, as an algebra with no
    closed-form construction does."""
    pairs, notes = lemma5_candidates(build("abelian", n=3), 0, 3)
    assert pairs == [] and len(notes) == 1 and "abelian" in notes[0]


def test_spec_for_pattern_exponents():
    alg = build("heisenberg", m=1)
    metric = Metric.identity(3)
    z = np.array([0.0, 0.0, 1.0])
    x = np.eye(3)[:, 0]
    y = np.eye(3)[:, 1]
    spec = spec_for_pattern(alg, metric, [z], [x, y])
    assert sorted(spec.lambdas.tolist()) == [-1.0, -1.0, 1.0]
    limit = scaled_ricci_limit(spec, alg)
    assert (limit.p, limit.q) == (1, 2)


@st.composite
def metric_and_vectors(draw):
    """(metric, V): the Metric.random Gram matrix B^T B + 1e-6 I with up to
    two rows of B zeroed, so cond(G) ranges up to about 1e8, and up to n
    nonzero integer rows V, sometimes with the (nonzero) sum of two of
    them added."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    b[:draw(st.integers(0, 2))] = 0.0
    metric = Metric(b.T @ b + 1e-6 * np.eye(n))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(row, max_size=n))
    total = [sum(c) for c in zip(*rows[:2])] if len(rows) >= 2 else []
    if any(total) and draw(st.booleans()):
        rows.append(total)
    return metric, np.array(rows, float).reshape(-1, n)


@settings(max_examples=200, deadline=None)
@given(metric_and_vectors())
def test_complement_frame_is_g_orthonormal_and_g_orthogonal(case):
    """n - rank(V) columns, g-orthonormal and g-orthogonal to every row of
    V (relative to its g-norm) within orthonormal_tol."""
    metric, v = case
    f = complement_frame(metric, v)
    rank_v = np.linalg.matrix_rank(v) if len(v) else 0
    assert f.shape == (metric.n, metric.n - rank_v)
    tol = orthonormal_tol(metric)
    assert np.abs(f.T @ metric.gram @ f
                  - np.eye(f.shape[1])).max(initial=0.0) <= tol
    if len(v) and f.shape[1]:
        vnorm = np.sqrt(np.einsum("ij,jk,ik->i", v, metric.gram, v))
        assert (np.abs(v @ metric.gram @ f) / vnorm[:, None]).max() <= tol


def _rotated_orthonormal_frame(n, rng):
    metric = Metric.random(n, rng)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return metric, metric.frame @ q


def test_spec_for_pattern_keeps_the_given_columns():
    """The +1 and -1 columns of the frame are the given vectors, unchanged;
    only the middle block is computed."""
    alg = build("L6_1")
    rng = np.random.default_rng(11)
    for p, q in ((1, 2), (2, 3), (1, 5)):
        metric, f = _rotated_orthonormal_frame(6, rng)
        plus, minus = list(f[:, :p].T), list(f[:, 6 - q:].T)
        spec = spec_for_pattern(alg, metric, plus, minus)
        assert np.array_equal(spec.frame[:, :p], f[:, :p])
        assert np.array_equal(spec.frame[:, 6 - q:], f[:, 6 - q:])
        assert spec.lambdas.tolist() == [1.0] * p + [0.0] * (6 - p - q) \
            + [-1.0] * q


def test_deformed_metric_ignores_the_middle_basis():
    """g_t is the same when the zero-exponent block of the frame is rotated
    by a random orthogonal matrix."""
    alg = build("L6_1")
    rng = np.random.default_rng(12)
    for _ in range(20):
        metric, f = _rotated_orthonormal_frame(6, rng)
        spec = spec_for_pattern(alg, metric, [f[:, 0]], [f[:, 4], f[:, 5]])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        frame = spec.frame.copy()
        frame[:, 1:4] = frame[:, 1:4] @ q
        rotated = DeformationSpec(base=metric, lambdas=spec.lambdas,
                                  frame=frame)
        for t in (0.5, 2.0, 8.0):
            g = deformed_metric(spec, t).gram
            diff = np.abs(deformed_metric(rotated, t).gram - g).max()
            assert diff <= orthonormal_tol(metric) * np.abs(g).max()


def scalar_worst_gap(grid, cands):
    """Reference: the scalar double loop that worst_gap replaces."""
    return max(min(projective_distance(g, c) for c in cands) for g in grid)


# entries either 0 or far from the float under- and overflow of a squared
# norm; small integers make exactly parallel rows
_float_entry = st.floats(-10.0, 10.0).map(lambda x: 0.0 if abs(x) < 1e-6
                                           else x)
_entry = st.one_of(_float_entry, st.integers(-3, 3).map(float))


@st.composite
def grid_and_candidates(draw):
    """(grid, cands) with n <= 6 and nonzero rows, in one of the shapes
    that stress the screen: random rows, candidates that are scaled copies
    of grid rows (every row minimum is rounding noise), duplicated
    candidates, one grid row, and one candidate."""
    n = draw(st.integers(1, 6))
    row = st.lists(_entry, min_size=n, max_size=n).filter(any)
    shape = draw(st.sampled_from(
        ["random", "scaled", "duplicated", "one-row", "one-candidate"]))
    grid = draw(st.lists(row, min_size=1,
                         max_size=1 if shape == "one-row" else 12))
    cands = draw(st.lists(row, min_size=1,
                          max_size=1 if shape == "one-candidate" else 12))
    if shape == "scaled":
        scales = draw(st.lists(
            st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
            min_size=len(grid), max_size=len(grid)))
        cands = [[s * x for x in g] for s, g in zip(scales, grid)] + cands
    elif shape == "duplicated":
        cands = cands + cands[::-1] + cands
    return np.array(grid), [np.array(c) for c in cands]


@settings(max_examples=200, deadline=None)
@given(grid_and_candidates())
def test_worst_gap_equals_scalar_loop(case):
    grid, cands = case
    assert worst_gap(grid, cands) == scalar_worst_gap(grid, cands)


def test_worst_gap_on_the_coverage_grids(monkeypatch):
    """The grid cases of the coverage check at seed 0, at the default block
    size and at 1 and 7 rows. On filiform4 every row minimum is rounding
    noise at a cosine of about 1."""
    for grid, cands in coverage_grid_cases(seed=0).values():
        expected = scalar_worst_gap(grid, cands)
        for rows in (deformation._GAP_ROWS, 1, 7):
            monkeypatch.setattr(deformation, "_GAP_ROWS", rows)
            assert worst_gap(grid, cands) == expected


def _complete_basis_full_scan(vectors):
    """complete_basis without its stop at n vectors: every e_i is tried."""
    have = [np.asarray(v, float) for v in vectors]
    out = []
    for e in np.eye(len(have[0])):
        if np.linalg.matrix_rank(np.column_stack(have + out + [e]),
                                 tol=BASIS_RANK_TOL) > len(have) + len(out):
            out.append(e)
    return out


def test_complete_basis_matches_full_scan():
    rng = np.random.default_rng(16)
    cases = []
    for n in range(1, 8):
        for k in range(1, n + 1):
            cases.append(list(rng.normal(size=(k, n))))           # generic
            cases.append(list(np.eye(n)[rng.permutation(n)[:k]]))  # axes
        v = rng.normal(size=n)
        cases.append([v, 2.0 * v])                                 # dependent
        cases.append([v, np.zeros(n)])
        cases.append(list(rng.normal(size=(n + 1, n))))            # too many
    for vectors in cases:
        got = complete_basis(vectors)
        want = _complete_basis_full_scan(vectors)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_worst_gap_rejects_zero_rows_and_empty_candidates():
    grid = np.eye(3)
    with pytest.raises(ValueError):
        worst_gap(np.vstack([grid, np.zeros(3)]), grid)
    with pytest.raises(ValueError):
        worst_gap(grid, [np.ones(3), np.zeros(3)])
    with pytest.raises(ValueError):
        worst_gap(grid, [])


def test_sphere_grid_covers_dimensions_one_to_three_only():
    """Directions in g-coordinates, inside the subspace, with unit
    coordinates in its RREF basis."""
    vectors = [[1, 2, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 1, 3],
               [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
    for dim in (1, 2, 3):
        sub = Subspace(vectors[:dim], 5)
        grid = sphere_grid(sub, 0.2)
        assert grid.shape[1] == 5
        assert all(sub.contains_float(g) for g in grid)
        coords = grid[:, sub.pivots]
        assert np.allclose(np.linalg.norm(coords, axis=1), 1.0)
    for dim in (0, 4, 5):
        with pytest.raises(ValueError):
            sphere_grid(Subspace(vectors[:dim], 5), 0.2)


def _frame_stack(key, rows):
    """Gram matrices and frame vectors of normal_form_frame over rows of
    alphas, as stacks."""
    from nilcurv import normal_form_frame
    frames = [normal_form_frame(key, a) for a in rows]
    grams = np.array([f.metric.gram for f in frames])
    vecs = [np.array([(f.e_vectors + f.u_vectors)[i] for f in frames])
            for i in range(5)]
    return frames[0].algebra, grams, vecs


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("key", ["L5_lemma7a", "L6_2"])
def test_candidate_T1_T2_stack_fails_like_the_loop(key):
    """A row whose e2 is not orthogonal to e1, or not a unit vector, in
    the middle of a direct candidate_T1_T2 stack raises the error of that
    row's scalar call."""
    rows = list(itertools.product((-2.0, 1.0, 3.0), repeat=3))
    alg, grams, vecs = _frame_stack(key, rows)
    e1, e2 = vecs[0].copy(), vecs[1].copy()
    e2[11] = (e2[11] + 0.5 * e1[11]) / np.sqrt(1.25)  # a unit vector
    e2[17] = 2.0 * e2[17]                 # not a unit vector
    stack = [e1, e2] + vecs[2:]

    def loop():
        for r in range(len(rows)):
            candidate_T1_T2(alg, Metric(grams[r]), *(v[r] for v in stack))
    want = _raised(loop)
    assert want == (CandidateError, "e1 and e2 are not orthogonal")
    assert _raised(candidate_T1_T2, alg, Metric(grams), *stack) == want
    e2[11] = vecs[1][11]
    want = _raised(loop)
    assert want == (CandidateError, "e2 is not a unit vector")
    assert _raised(candidate_T1_T2, alg, Metric(grams), *stack) == want


@pytest.mark.parametrize("key", ["L5_lemma7a", "L6_1"])
def test_candidate_T1_T2_stack_matches_scalar_calls(key):
    rows = list(itertools.product((-2.0, -1.0, 1.0, 2.0, 3.0), repeat=3))
    alg, grams, vecs = _frame_stack(key, rows)
    t1, t2 = candidate_T1_T2(alg, Metric(grams), *vecs)
    for r in range(len(rows)):
        s1, s2 = candidate_T1_T2(alg, Metric(grams[r]),
                                 *(v[r] for v in vecs))
        for got, want in ((t1, s1), (t2, s2)):
            assert np.abs(got.T[r] - want.T).max() \
                <= 1e-12 * np.abs(want.T).max()
            assert abs(got.lambda_extreme[r] - want.lambda_extreme) \
                <= 1e-12 * want.lambda_extreme


def test_codim1_adapted_metric_stack_matches_scalar_calls():
    """Rows of u1 in the abelian ideal of filiform4: the stacked metrics
    and completion vectors are the scalar calls', and a row whose frame
    cannot be completed (u1 = c) raises the scalar call's error."""
    from nilcurv.deformation import codim1_adapted_metric
    alg = build("filiform4")
    ideal = alg.find_codim1_abelian_ideal()
    c = np.array(ideal.complement()[0], float)
    rng = np.random.default_rng(5)
    u1 = rng.normal(size=(12, len(ideal.basis))) \
        @ np.array(ideal.basis, float)
    metrics, es = codim1_adapted_metric(alg, c, u1)
    assert len(metrics) == len(u1)
    for r in range(len(u1)):
        metric, e = codim1_adapted_metric(alg, c, u1[r])
        for name in ("gram", "frame", "_inv"):
            assert np.array_equal(getattr(metrics[r], name),
                                  getattr(metric, name))
        assert np.array_equal(es[r], e)
    u1[7] = c
    with pytest.raises(CandidateError) as scalar:
        codim1_adapted_metric(alg, c, u1[7])
    assert _raised(codim1_adapted_metric, alg, c, u1) \
        == (CandidateError, str(scalar.value)) \
        == (CandidateError, "frame completion failed")


def _patterns(n):
    """Every (p, q) of a (+1 x p, 0, -1 x q) pattern in dimension n."""
    return [(p, q) for p in range(1, n - 1) for q in range(2, n - p + 1)]


def _pattern(n, p, q):
    return np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])


@pytest.mark.parametrize(
    "entry", [e for e in list_catalog() if e.build().n <= 7],
    ids=lambda e: e.label)
def test_stacked_limit_matches_scalar_specs(entry):
    """For every (p, q), a spec on a stack of random metrics, with their
    Cholesky frames or with permuted ones, gives the pattern's d, gap,
    Lambda, p and q, and rows of phi0, c, A, each J_k, sum_k J_k^2, the
    phi0 eigenvalues and deformed_ricci_frame equal to the scalar specs'."""
    alg = entry.build()
    n = alg.n
    rng = np.random.default_rng(sum(map(ord, entry.label)))
    metrics = Metric.from_factor(rng.uniform(-1.0, 1.0, size=(4, n, n)))
    for frames in (metrics.frame, metrics.frame[:, :, rng.permutation(n)]):
        for p, q in _patterns(n):
            lam = _pattern(n, p, q)
            spec = DeformationSpec(base=metrics, lambdas=lam, frame=frames)
            limit = scaled_ricci_limit(spec, alg)
            t = 40.0 / limit.gap if np.isfinite(limit.gap) else 5.0
            deformed = deformed_ricci_frame(spec, alg, t)
            sum_j2, ev = limit.sum_J_squared(), limit.phi0_eigenvalues()
            assert len(limit.J) == p
            for i in range(len(metrics)):
                one = scaled_ricci_limit(DeformationSpec(
                    base=metrics[i], lambdas=lam, frame=frames[i]), alg)
                assert (limit.d, limit.gap, limit.Lambda, limit.p, limit.q) \
                    == (one.d, one.gap, one.Lambda, one.p, one.q)
                for name in ("phi0", "c", "A"):
                    assert np.array_equal(getattr(limit, name)[i],
                                          getattr(one, name)), name
                assert all(np.array_equal(j[i], k)
                           for j, k in zip(limit.J, one.J))
                assert np.array_equal(sum_j2[i], one.sum_J_squared())
                assert np.array_equal(ev[i], one.phi0_eigenvalues())
                assert np.array_equal(
                    deformed[i], deformed_ricci_frame(one.spec, alg, t))


def test_limit_deformed_operator_is_the_spec_one():
    """ScaledRicciLimit.deformed_ricci_frame(t), from the tensor the limit
    holds, is deformed_ricci_frame(spec, algebra, t) to the bit, on a
    stacked and a single spec, and raises its OverflowGuardError."""
    alg = build("filiform_standard", n=6)
    rng = np.random.default_rng(27)
    metrics = Metric.from_factor(rng.uniform(-1.0, 1.0, size=(5, 6, 6)))
    for base in (metrics, metrics[2]):
        spec = DeformationSpec(base=base, lambdas=_pattern(6, 2, 3))
        limit = scaled_ricci_limit(spec, alg)
        for t in (0.5, 3.0, 40.0):
            assert limit.deformed_ricci_frame(t).tobytes() \
                == deformed_ricci_frame(spec, alg, t).tobytes()
        with pytest.raises(OverflowGuardError):
            limit.deformed_ricci_frame(1e6)


def test_stacked_spec_fails_like_the_scalar_specs():
    """A stacked spec raises the ValueError and message of its first row
    whose frame is not orthonormal, and of any row for lambdas of the
    wrong shape."""
    rng = np.random.default_rng(26)
    n = 5
    metrics = Metric.from_factor(rng.uniform(-1.0, 1.0, size=(8, n, n)))
    lam = _pattern(n, 2, 2)
    frames = metrics.frame.copy()
    frames[3, :, 1] *= 1.001
    frames[6, :, 4] *= 1.1

    def loop():
        for i in range(len(metrics)):
            DeformationSpec(base=metrics[i], lambdas=lam, frame=frames[i])
    want = _raised(loop)
    assert want[0] is ValueError
    assert want[1].startswith("frame not orthonormal for base (")
    assert _raised(DeformationSpec, metrics, lam, frames) == want
    frames[3] = metrics.frame[3]
    assert _raised(DeformationSpec, metrics, lam, frames)[1] != want[1]
    for bad in (np.ones(n - 1), np.ones((len(metrics), n + 1)),
                np.ones(n + 1)):
        assert _raised(DeformationSpec, metrics, bad) \
            == _raised(DeformationSpec, metrics[0], bad) \
            == (ValueError, "lambdas must have length n")


def _check_draws(n, rng, count=10):
    """(p, q) draws as check_deformation_limit makes them."""
    draws = []
    for _ in range(count):
        p = int(rng.integers(1, max(2, n - 2)))
        q = int(rng.integers(2, max(3, n - p + 1)))
        draws.append((p, q))
    return draws


@pytest.mark.parametrize(
    "entry", [e for e in list_catalog() if e.build().n <= 7],
    ids=lambda e: e.label)
def test_per_row_patterns_match_single_pattern_limits(entry):
    """A spec with one exponent pattern per row, the check's draws, every
    (p, q) and one pattern without blocks, gives per row the d, gap and
    phi0 of its single-pattern spec, deformed_ricci_frame at that row's
    own t and deformed_metric at a fraction of it; `limit[rows]` of the rows of one pattern gives its
    Lambda, p, q, A and sum_k J_k^2 to the bit."""
    alg = entry.build()
    n = alg.n
    rng = np.random.default_rng(sum(map(ord, entry.label)))
    pqs = _check_draws(n, rng) + _patterns(n)
    lams = [_pattern(n, p, q) for p, q in pqs] + [np.linspace(-1.0, 2.0, n)]
    factors = rng.uniform(-1.0, 1.0, size=(len(lams), n, n))
    limit = scaled_ricci_limit(DeformationSpec(
        base=Metric.from_factor(factors), lambdas=lams), alg)
    assert limit.Lambda is None and not limit.has_block_structure
    t = np.where(np.isfinite(limit.gap), 40.0 / limit.gap, 5.0)
    deformed, ev = limit.deformed_ricci_frame(t), limit.phi0_eigenvalues()
    metrics = deformed_metric(limit.spec, t / 40.0)   # cond(G) stays small
    for i, lam in enumerate(lams):
        one = scaled_ricci_limit(DeformationSpec(
            base=Metric.from_factor(factors[i]), lambdas=lam), alg)
        for got, want in ((limit.d[i], one.d), (limit.gap[i], one.gap),
                          (limit.phi0[i], one.phi0), (limit.c[i], one.c),
                          (ev[i], one.phi0_eigenvalues()),
                          (deformed[i], one.deformed_ricci_frame(t[i])),
                          (metrics.gram[i], deformed_metric(
                              one.spec, t[i] / 40.0).gram)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        rows = [k for k, other in enumerate(lams)
                if np.array_equal(other, lam)]
        group = limit[rows]
        assert np.array_equal(group.spec.lambdas, lam)
        assert (group.Lambda, group.p, group.q) == (one.Lambda, one.p, one.q)
        assert len(group.J) == len(one.J)
        if one.has_block_structure:
            row = rows.index(i)
            assert group.A[row].tobytes() == one.A.tobytes()
            assert group.sum_J_squared()[row].tobytes() \
                == one.sum_J_squared().tobytes()


def test_a_limit_view_needs_one_pattern():
    """limit[rows] of rows with two exponent patterns raises ValueError,
    and a view of one row of a one-pattern stack is that row's limit."""
    alg = build("filiform_standard", n=6)
    rng = np.random.default_rng(28)
    metrics = Metric.from_factor(rng.uniform(-1.0, 1.0, size=(3, 6, 6)))
    mixed = scaled_ricci_limit(DeformationSpec(base=metrics, lambdas=[
        _pattern(6, 1, 2), _pattern(6, 2, 3), _pattern(6, 1, 2)]), alg)
    assert mixed[[0, 2]].p == 1
    with pytest.raises(ValueError, match="share one exponent pattern"):
        mixed[[0, 1]]
    shared = scaled_ricci_limit(DeformationSpec(
        base=metrics, lambdas=_pattern(6, 2, 3)), alg)
    view, one = shared[[1]], scaled_ricci_limit(DeformationSpec(
        base=metrics[1], lambdas=_pattern(6, 2, 3)), alg)
    assert (view.d, view.gap, view.Lambda) == (one.d, one.gap, one.Lambda)
    assert view.A[0].tobytes() == one.A.tobytes()


def test_per_row_lambdas_fail_like_the_single_specs():
    """Per-row lambdas of the wrong length, with a row that is not finite,
    or with a row count other than the base's raise the ValueError and
    message of the single spec with those lambdas; a row whose t
    overflows raises OverflowGuardError."""
    rng = np.random.default_rng(29)
    n = 5
    metrics = Metric.from_factor(rng.uniform(-1.0, 1.0, size=(4, n, n)))
    lams = np.array([_pattern(n, 1, 2), _pattern(n, 2, 2),
                     _pattern(n, 1, 3), _pattern(n, 1, 2)])
    not_finite = lams.copy()
    not_finite[2, 1] = np.inf
    for bad, message in ((np.ones((4, n - 1)), "lambdas must have length n"),
                         (not_finite, "lambdas must be finite"),
                         (lams[:3], "lambdas must have one row per row of "
                                    "the base")):
        assert _raised(DeformationSpec, metrics, bad) \
            == _raised(DeformationSpec, metrics[0], bad) \
            == (ValueError, message)
    assert _raised(DeformationSpec, metrics[2], not_finite[2]) \
        == (ValueError, "lambdas must be finite")
    spec = DeformationSpec(base=metrics, lambdas=lams * [[1], [1], [10], [1]])
    limit = scaled_ricci_limit(spec, build("filiform_standard", n=5))
    limit.deformed_ricci_frame(np.array([71.0, 71.0, 20.0, 71.0]))
    with pytest.raises(OverflowGuardError):
        limit.deformed_ricci_frame(np.array([1.0, 1.0, 71.0, 1.0]))


def test_stacked_normal_form_frame_spec_is_the_single_frames():
    """spec() of one stacked normal_form_frame over three L5_lemma7a
    alphas has, per row, the Gram matrix, frame and pattern of that row's
    single frame spec, to the bit."""
    from nilcurv import normal_form_frame
    alphas = np.array([[1.0, 2.0, -0.5], [0.3, -1.2, 2.5], [-2.0, 0.7, 1.1]])
    spec = normal_form_frame("L5_lemma7a", alphas).spec()
    assert spec.frame.shape == (3, 5, 5)
    for i, a in enumerate(alphas):
        one = normal_form_frame("L5_lemma7a", a).spec()
        assert spec.base.gram[i].tobytes() == one.base.gram.tobytes()
        assert spec.frame[i].tobytes() == one.frame.tobytes()
        assert np.array_equal(spec.lambdas, one.lambdas)
