"""Metric deformations, scaled Ricci limits, and closed-form extremal
candidates, each cross-checked against an independent direct computation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcurv import (
    CandidateError,
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
    scaled_ricci_limit,
    spec_for_pattern,
    theorem2_expected_M,
    two_step_deformation,
    worst_gap,
)
from nilcurv import deformation
from nilcurv.deformation import (
    BASIS_RANK_TOL,
    ExtremalCandidate,
    _check_eu_preconditions,
    complete_basis,
    deformed_metric,
    deformed_ricci_frame,
    orthonormal_tol,
    sphere_grid,
)
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
    d_got, lam_set, gap = deformation._lambda_triples(
        np.array([float(x) for x in exact]))
    assert lam_set == sorted(t for t, v in vals.items() if v == d)
    assert abs(d_got - float(d)) <= 1e-15
    assert abs(gap - float(d - runner_up)) <= 1e-15


def test_extremal_T_satisfies_limit_eigen_equation():
    alg = build("L5_lemma7a")
    rng = np.random.default_rng(6)
    spec = DeformationSpec(base=Metric.random(5, rng),
                           lambdas=np.array([1.0, 1.0, -1.0, -1.0, -1.0]))
    limit = scaled_ricci_limit(spec, alg)
    cand = extremal_T(limit, alg)
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
            top = extremal_T(scaled_ricci_limit(spec, alg), alg)
            assert abs(cand.lambda_extreme - top.lambda_extreme) \
                <= 1e-9 * top.lambda_extreme, entry.key


def test_lemma5a_filiform4():
    alg = build("filiform4")
    metric = Metric.identity(4)
    w, x, _, z = (np.eye(4)[:, i] for i in range(4))
    spec, cand = lemma5a_deformation(alg, metric, z, w, x)
    assert np.abs(cand.T + x).max() < 1e-12   # T = -X
    trace = convergence_check(spec, alg, cand)
    assert trace.converged


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
    _, _, u1, _, _, _, a, b = _check_eu_preconditions(
        algebra, metric, e1, e2, u1, u2, u3)
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


def test_convergence_rejects_non_simple():
    alg = build("filiform4")
    metric = Metric.identity(4)
    w, x, _, z = (np.eye(4)[:, i] for i in range(4))
    cand = candidate_e1u2(alg, metric, z, w, x)  # <z,[w,x]> = 0: not simple
    assert not cand.simple
    spec = spec_for_pattern(alg, metric, [z], [w, x])
    with pytest.raises(CandidateError):
        convergence_check(spec, alg, cand)


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
