"""The scaled Ricci limit and its closed-form top eigenvector against the
loop formulas they replaced: the exponent triples enumerated one by one,
the Lambda mask, J_k and A filled entry by entry, and T built from
brackets of frame vectors in basis coordinates. The stacked t-ladder of
convergence_check against the per-t loop of deformed_ricci calls."""

import dataclasses

import numpy as np
import pytest

from nilcurv import (
    CandidateError,
    DeformationSpec,
    ExtremalCandidate,
    Metric,
    OverflowGuardError,
    ScaledRicciLimit,
    build,
    candidate_e1u2,
    convergence_check,
    deformed_ricci,
    extremal_T,
    lemma5_candidates,
    lemma5a_deformation,
    list_catalog,
    normal_form_frame,
    projective_distance,
    scaled_ricci_limit,
    two_step_deformation,
)
from nilcurv.curvature import frame_structure, ricci_frame
from nilcurv.deformation import T_GRID, stack_pairs

SPECS_PER_ALGEBRA = 30
PERMUTED_SPECS = 10


def lambda_triples_loop(lam):
    """d, the sorted maximizing triples (i, j, k) with i > j, and the gap
    to the runner-up, one triple at a time."""
    n = len(lam)
    vals = {}
    for i in range(n):
        for j in range(i):
            for k in range(n):
                vals[(i, j, k)] = lam[k] - lam[i] - lam[j]
    d = max(vals.values())
    tol = 1e-12 * (np.abs(lam).max() + 1.0)
    lam_set = [t for t, v in vals.items() if v >= d - tol]
    rest = [v for t, v in vals.items() if t not in set(lam_set)]
    gap = d - max(rest) if rest else np.inf
    return d, sorted(lam_set), gap


def scaled_ricci_limit_loop(spec, algebra, p, q):
    """The limit with its mask, J_k and A filled entry by entry."""
    d, lam_set, gap = lambda_triples_loop(spec.lambdas)
    c = frame_structure(algebra, spec.base, spec.frame)
    n = spec.n
    mask = np.zeros((n, n, n))
    for (i, j, k) in lam_set:
        mask[i, j, k] = mask[j, i, k] = 1.0
    js = [np.array([[c[n - q + r, n - q + s, k] for s in range(q)]
                    for r in range(q)]) for k in range(p)]
    return ScaledRicciLimit(
        spec=spec, d=d, Lambda=lam_set, phi0=2.0 * ricci_frame(c, mask),
        gap=gap, c=c, p=p, q=q, J=js,
        A=np.array([[0.5 * np.trace(js[k] @ js[l].T) for l in range(p)]
                    for k in range(p)]))


def extremal_T_loop(limit, algebra):
    """T = Y + sum_r eta_r e_(n-q+r) from brackets of frame vectors, with
    the first p frame vectors and the J_k rotated onto A's eigenbasis when
    the first is not A's top eigenvector, checked in frame coordinates
    recovered by a solve."""
    p, q = limit.p, limit.q
    avals, avecs = np.linalg.eigh(limit.A)
    lam_max = avals[-1]
    if lam_max <= 1e-12:
        raise CandidateError("A has no positive top eigenvalue")
    gap_tol = 1e-8 * (np.abs(avals).max() + 1.0)
    if not (p < 2 or (avals[-1] - avals[-2]) > gap_tol):
        return ExtremalCandidate(T=np.zeros(limit.spec.n),
                                 lambda_extreme=lam_max,
                                 construction="generic_limit", simple=False)
    n = limit.spec.n
    frame = limit.spec.frame
    js = limit.J
    e_plus = [frame[:, k] for k in range(p)]
    top = avecs[:, -1]
    if p > 1 and abs(abs(top[0]) - 1.0) > 1e-12:
        o = avecs[:, np.argsort(avals)[::-1]]
        js = [sum(o[l, k] * limit.J[l] for l in range(p)) for k in range(p)]
        e_plus = [frame[:, :p] @ o[:, k] for k in range(p)]
    low = [frame[:, n - q + r] for r in range(q)]
    y = np.zeros(n)
    for r in range(q):
        for s in range(q):
            y += js[0][r, s] * algebra.bracket_float(low[r], low[s])
    g = limit.spec.base.gram
    xi = np.zeros(q)
    for r in range(q):
        for s in range(q):
            bsy = algebra.bracket_float(low[s], y)
            for k in range(p):
                xi[r] += js[k][r, s] * float(e_plus[k] @ g @ bsy)
    eta = np.linalg.solve(lam_max * np.eye(q) - sum(j @ j for j in js), xi)
    t_vec = y + sum(eta[r] * low[r] for r in range(q))
    cand = ExtremalCandidate(T=t_vec, lambda_extreme=lam_max,
                             construction="generic_limit", simple=True)
    if not cand.is_zero:
        tf = np.linalg.solve(frame, t_vec)
        resid = np.abs(limit.phi0 @ tf - lam_max * tf).max()
        if resid > 1e-6 * (np.abs(tf).max() + 1.0):
            raise CandidateError(f"limit eigen-equation failed ({resid:.2e})")
    return cand


def _outcome(build):
    try:
        return build()
    except CandidateError:
        return None


NONABELIAN = [e for e in list_catalog() if not e.build().is_abelian()]


def _specs(alg, rng):
    """(p, q, spec): SPECS_PER_ALGEBRA random metrics with their Cholesky
    frames, then PERMUTED_SPECS permutations of the standard basis under
    the identity metric, whose limits are often degenerate (J_1 = 0 or A
    not simple), so that the raising paths are compared too."""
    n = alg.n
    for r in range(SPECS_PER_ALGEBRA + PERMUTED_SPECS):
        p = int(rng.integers(1, n - 1))
        q = int(rng.integers(2, n - p + 1))
        lam = np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])
        spec = DeformationSpec(base=Metric.random(n, rng), lambdas=lam) \
            if r < SPECS_PER_ALGEBRA else DeformationSpec(
                base=Metric.identity(n), lambdas=lam,
                frame=np.eye(n)[:, rng.permutation(n)])
        yield p, q, spec


@pytest.mark.parametrize("entry", NONABELIAN, ids=lambda e: e.label)
def test_limit_and_T_match_the_loops(entry):
    """Lambda, d, the gap, phi0, J and A are bitwise those of the loops;
    T agrees to 1e-9 relative, and the same specs raise CandidateError."""
    alg = entry.build()
    rng = np.random.default_rng(sum(map(ord, entry.label)))
    for p, q, spec in _specs(alg, rng):
        got = scaled_ricci_limit(spec, alg)
        want = scaled_ricci_limit_loop(spec, alg, p, q)
        assert got.Lambda == want.Lambda
        assert (got.p, got.q) == (p, q)
        for name in ("d", "gap", "phi0", "A"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name
        assert all(np.array_equal(a, b) for a, b in zip(got.J, want.J))
        cand = _outcome(lambda: extremal_T(got))
        ref = _outcome(lambda: extremal_T_loop(want, alg))
        assert (cand is None) == (ref is None)
        if ref is not None:
            assert cand.simple == ref.simple
            assert cand.lambda_extreme == ref.lambda_extreme
            assert np.abs(cand.T - ref.T).max() \
                <= 1e-9 * np.abs(ref.T).max()


def convergence_rows_loop(spec, algebra, cand):
    """The (t, lambda, distance) rows of the per-t ladder that
    convergence_check replaced: deformed_ricci at each t of T_GRID up to
    the first that raises OverflowGuardError."""
    rows = []
    for t in T_GRID:
        try:
            report = deformed_ricci(spec, algebra, t)
        except OverflowGuardError:
            break
        k = -1 if cand.kind == "max" else 0
        rows.append((float(t), float(report.eigenvalues[k]),
                     projective_distance(report.eigenvectors[:, k], cand.T)))
    return rows


def _bits(rows):
    return np.array(rows, float).tobytes()


def _extremal_convergence_cases():
    """The (spec, algebra, candidate) of the three extremal-convergence
    cases of verify-paper, and the Ricci-minimal u1 of the last frame."""
    h3 = build("heisenberg", m=1)
    spec, cand = two_step_deformation(h3, Metric.identity(3), np.eye(3)[2])
    yield spec, h3, cand
    f4, metric = build("filiform4"), Metric.identity(4)
    w, x, y, z = np.eye(4)
    e = z + 1e-5 * y
    spec, tilted = lemma5a_deformation(f4, metric,
                                       e / np.sqrt(metric.norm2(e)), w, x)
    yield spec, f4, dataclasses.replace(
        tilted, T=candidate_e1u2(f4, metric, z, w, x).T)
    frame = normal_form_frame("L5_lemma7a", (1.0, 1.0, 1.0))
    yield frame.spec(), frame.algebra, frame.candidate()
    yield frame.spec(), frame.algebra, ExtremalCandidate(
        T=frame.u_vectors[0], lambda_extreme=-1.0, construction="eumin",
        simple=True, kind="min")


@pytest.mark.parametrize("entry", NONABELIAN, ids=lambda e: e.label)
def test_stacked_ladder_matches_the_per_t_loop(entry):
    """Every Lemma 5 pair at seeds 0 and 105, checked in one stacked
    ladder, gets the (t, lambda, distance) rows of the per-t loop to the
    bit; so does each pair checked alone."""
    alg = entry.build()
    for seed in (0, 105):
        pairs, _ = lemma5_candidates(alg, seed, 10)
        if not pairs:
            continue
        cand, spec = stack_pairs(pairs)
        traces = convergence_check(spec, alg, cand)
        assert len(traces) == len(pairs)
        for (one, one_spec), trace in zip(pairs, traces):
            want = convergence_rows_loop(one_spec, alg, one)
            assert _bits(trace.rows) == _bits(want), (entry.label, seed)
            single = convergence_check(one_spec, alg, one)
            assert _bits(single.rows) == _bits(want)
            assert trace.converged == single.converged == (
                min(r[2] for r in want) < 1e-4)


def test_ladder_matches_the_loop_on_the_extremal_convergence_cases():
    """The three extremal-convergence cases and a Ricci-minimal candidate,
    each a one-row ladder, are the per-t loop to the bit, including the
    rows whose scale exp(2 shift) overflows, where lambda is +-inf."""
    infinite = 0
    for spec, alg, cand in _extremal_convergence_cases():
        trace = convergence_check(spec, alg, cand)
        want = convergence_rows_loop(spec, alg, cand)
        assert len(want) == 10 and _bits(trace.rows) == _bits(want)
        infinite += sum(np.isinf(lam) for _, lam, _ in trace.rows)
    assert infinite > 0


def test_stacked_ladder_keeps_its_overflowed_rows():
    """The T2 candidates of the L5_lemma7a frame at several alphas, one
    exponent pattern for all, in one stacked ladder: rows with lambda =
    +-inf and finite ones, each the per-t loop's to the bit."""
    frames = [normal_form_frame("L5_lemma7a", alphas) for alphas in
              [(1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (0.3, 1.0, 3.0)]]
    pairs = [(f.candidate(), f.spec()) for f in frames]
    alg = frames[0].algebra
    cand, spec = stack_pairs(pairs)
    lams = []
    for (one, one_spec), trace in zip(pairs, convergence_check(spec, alg,
                                                               cand)):
        assert _bits(trace.rows) == _bits(
            convergence_rows_loop(one_spec, alg, one))
        lams += [lam for _, lam, _ in trace.rows]
    assert np.isinf(lams).any() and np.isfinite(lams).any()
