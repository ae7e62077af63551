"""Explicit maximal-direction frames for the small normal forms."""

import itertools

import numpy as np
import pytest

from nilcurv import (
    FRAME_KEYS,
    CandidateError,
    convergence_check,
    normal_form_frame,
    projective_distance,
    scaled_ricci_limit,
)


def test_unknown_key():
    with pytest.raises(KeyError):
        normal_form_frame("heisenberg", (1, 1, 1))


def test_zero_alpha_rejected():
    with pytest.raises(CandidateError):
        normal_form_frame("L5_lemma7a", (1.0, 0.0, 1.0))


@pytest.mark.parametrize("key", FRAME_KEYS)
@pytest.mark.parametrize("alphas", [(1.0, 1.0, 1.0), (2.0, -1.0, 0.5)])
def test_candidate_matches_display(key, alphas):
    frame = normal_form_frame(key, alphas)
    cand = frame.candidate()
    assert cand.simple
    assert projective_distance(cand.T, frame.expected_T) < 1e-6


@pytest.mark.parametrize("key", FRAME_KEYS)
def test_T2_candidate_converges(key):
    """The T2 candidate is the eigendirection of the scaled limit, so the
    deformed Ricci maximal direction converges to it; the T1 display
    direction is realized by other deformations and only contributes to
    coverage."""
    from nilcurv import candidate_T1_T2
    frame = normal_form_frame(key, (1.0, 1.0, 1.0))
    _, t2 = candidate_T1_T2(frame.algebra, frame.metric,
                            *frame.e_vectors, *frame.u_vectors)
    trace = convergence_check(frame.spec(), frame.algebra, t2)
    assert trace.converged


@pytest.mark.parametrize("key", FRAME_KEYS)
def test_shift_moves_expected_direction(key):
    shift_len = 2 if key == "L5_lemma7a" else 3
    base = normal_form_frame(key, (1.0, 1.0, 1.0))
    shifted = normal_form_frame(key, (1.0, 1.0, 1.0),
                                tuple(1.0 for _ in range(shift_len)))
    # the automorphism shift changes the realized direction
    assert projective_distance(base.expected_T, shifted.expected_T) > 1e-6
    cand = shifted.candidate()
    assert projective_distance(cand.T, shifted.expected_T) < 1e-6


@pytest.mark.parametrize("key", FRAME_KEYS)
def test_frame_spec_has_block_structure(key):
    frame = normal_form_frame(key, (1.0, 2.0, 3.0))
    limit = scaled_ricci_limit(frame.spec(), frame.algebra)
    assert limit.has_block_structure
    assert limit.p == 2 and limit.q == 3


def test_orthonormality_of_frame_vectors():
    frame = normal_form_frame("L6_2", (1.0, 1.0, 1.0))
    m = frame.metric
    vecs = frame.u_vectors + frame.e_vectors
    for i, v in enumerate(vecs):
        assert abs(m.norm2(v) - 1.0) < 1e-9
        for w in vecs[:i]:
            assert abs(m.inner(v, w)) < 1e-9


@pytest.mark.parametrize("key", FRAME_KEYS)
def test_array_shift_equals_tuple_shift(key):
    shift = (0.5, -1.0, 2.0)[:2 if key == "L5_lemma7a" else 3]
    want = normal_form_frame(key, (1.0, 2.0, 3.0), shift)
    got = normal_form_frame(key, np.array([1.0, 2.0, 3.0]), np.array(shift))
    assert np.array_equal(got.metric.gram, want.metric.gram)
    assert np.array_equal(got.expected_T, want.expected_T)
    for g, w in zip(got.e_vectors + got.u_vectors,
                    want.e_vectors + want.u_vectors):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("key", FRAME_KEYS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_parameters_are_rejected(key, bad):
    """A NaN, infinite or overflowing alpha or shift entry raises
    CandidateError up front (RuntimeWarnings are errors in this suite)."""
    zero = (0.0,) * (2 if key == "L5_lemma7a" else 3)
    for i in range(3):
        alphas = [1.0, 2.0, 3.0]
        alphas[i] = bad
        with pytest.raises(CandidateError, match="finite"):
            normal_form_frame(key, alphas)
    for i in range(len(zero)):
        shift = list(zero)
        shift[i] = bad
        with pytest.raises(CandidateError, match="finite"):
            normal_form_frame(key, (1.0, 2.0, 3.0), shift)


def _coverage_rows(key):
    """The alphas and shifts of the coverage check: alphas over
    {-2, -1, 1, 2, 3}^3 and, innermost, the shift 0 and each unit shift."""
    k = 2 if key == "L5_lemma7a" else 3
    shifts = [np.zeros(k)] + list(np.eye(k))
    rows = [(a, s) for a in itertools.product((-2.0, -1.0, 1.0, 2.0, 3.0),
                                              repeat=3) for s in shifts]
    return np.array([a for a, _ in rows]), np.array([s for _, s in rows])


def _frame_loop(key, alphas, shifts):
    """Reference: one normal_form_frame and candidate per row."""
    return np.array([normal_form_frame(key, a, s).candidate().T
                     for a, s in zip(alphas, shifts)])


@pytest.mark.parametrize("key", FRAME_KEYS)
def test_stacked_candidates_match_the_frame_loop(key):
    """All 375 (L5_lemma7a) or 500 rows of the coverage grid: the
    candidates of one stacked frame equal the row-by-row ones to 1e-12 of
    max|T|, and each is the display direction of its frame."""
    alphas, shifts = _coverage_rows(key)
    frames = normal_form_frame(key, alphas, shifts)
    got = frames.candidate().T
    want = _frame_loop(key, alphas, shifts)
    assert got.shape == want.shape == (len(alphas), 5 if key == "L5_lemma7a"
                                       else 6)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for t, expected in zip(got, frames.expected_T):
        assert projective_distance(t, expected) < 1e-6


def _raised(fn, *args):
    """(class, message) of what fn(*args) raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _stacked(key, alphas, shifts):
    return normal_form_frame(key, alphas, shifts).candidate().T


@pytest.mark.parametrize("key", FRAME_KEYS)
def test_stacked_candidates_fail_like_the_frame_loop(key):
    """A zero alpha, or a shift too large, in the middle of the stack
    raises what the row-by-row loop raises at that row."""
    alphas, shifts = _coverage_rows(key)
    alphas[37, 1] = 0.0
    want = _raised(_frame_loop, key, alphas, shifts)
    assert want == (CandidateError, "alphas must be nonzero")
    assert _raised(_stacked, key, alphas, shifts) == want
    shifts[20, 0] = np.inf
    want = _raised(_frame_loop, key, alphas, shifts)
    assert "finite" in want[1]
    assert _raised(_stacked, key, alphas, shifts) == want
