"""Explicit maximal-direction frames for the small normal forms.

For the five- and six-dimensional normal forms that occur as generic
bracket-closure subalgebras, specific orthonormal systems (u1, u2, u3,
e1, e2) parametrized by three nonzero reals realize prescribed directions
as Ricci-maximal limits. Automorphism shifts phi(c) = c + U (U in the
center of the codimension-one ideal) sweep the remaining directions, so
the candidate set spans the whole algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import NilpotentAlgebra
from .catalog import build
from .curvature import Metric, raise_first_failure
from .deformation import (
    CandidateError,
    DeformationSpec,
    ExtremalCandidate,
    candidate_T1_T2,
    spec_for_pattern,
)

FRAME_KEYS = ("L5_lemma7a", "L6_1", "L6_2", "L6_3")


@cache
def _frame_algebra(key: str) -> NilpotentAlgebra:
    """The catalog algebra of one of FRAME_KEYS, built once per process;
    no frame mutates it."""
    return build(key)


@dataclass
class NormalFormFrame:
    key: str
    algebra: NilpotentAlgebra
    metric: Metric                  # stacked for a stack of frames
    e_vectors: list[np.ndarray]     # e1, e2
    u_vectors: list[np.ndarray]     # u1, u2, u3
    expected_T: np.ndarray          # basis coordinates of the display value
    which: str                      # "T1" or "T2"

    def candidate(self) -> ExtremalCandidate:
        t1, t2 = candidate_T1_T2(self.algebra, self.metric,
                                 self.e_vectors[0], self.e_vectors[1],
                                 *self.u_vectors)
        return t1 if self.which == "T1" else t2

    def spec(self) -> DeformationSpec:
        return spec_for_pattern(self.algebra, self.metric,
                                self.e_vectors, self.u_vectors)


# alphas and shifts up to this size keep the frames' Gram matrices, whose
# entries are polynomials of degree 8 in them, far from float overflow
FRAME_PARAMETER_MAX = 1e12


def normal_form_frame(key: str, alphas, shift=None) -> NormalFormFrame:
    """The explicit maximal-direction frame for one of FRAME_KEYS.

    alphas: three nonzero reals. shift: automorphism parameters --
    (beta1, beta2) for the five-dimensional form, mapping
    c -> c + (beta1 A + beta2 Z) / alpha1; three coefficients of
    (A1, A2, Z) for the six-dimensional forms, mapping c -> c + U; None
    for none. All finite and at most FRAME_PARAMETER_MAX in size. Rows of
    alphas and shifts give all their frames in one pass, as one frame of
    stacked vectors and Gram matrices; a single frame is the N=1 case.
    Bad rows raise the error of one of their single frames.
    """
    if key not in FRAME_KEYS:
        raise KeyError(f"no normal-form frame for {key!r}")
    algebra = _frame_algebra(key)
    n = algebra.n
    rows = np.atleast_2d(np.asarray(alphas, float))
    shifts = np.broadcast_to(np.zeros(n - 3) if shift is None else shift,
                             (len(rows), n - 3)).astype(float)

    big = ~(np.abs(np.hstack([rows, shifts])) <= FRAME_PARAMETER_MAX)
    raise_first_failure(CandidateError, [
        ((np.abs(rows) < 1e-12).any(axis=1), "alphas must be nonzero"),
        (big.any(axis=1), "alphas and shift must be finite, at most "
                          f"{FRAME_PARAMETER_MAX:g}")])
    a1, a2, a3 = rows.T[..., None]
    if key == "L5_lemma7a":
        # basis c, X, Y, Z, A
        c, x, y, z, a = np.eye(n)
        b1, b2 = shifts.T[..., None]
        cphi = c + (b1 * a + b2 * z) / a1
        u1 = 6 * a1 * cphi + a2 * x
        u2 = cphi
        u3 = 10 * a1 * cphi + a3 * y
        e1 = -a2 * a
        e2 = np.sqrt(2.0) * (-10 * a1 * a2 * a + a2 * a3 * z)
        which = "T2"
        expected = (a1 * c + a2 * x + a3 * y
                    + (b1 - 0.5 * a2 * a3 / a1) * a + b2 * z)
        metric = Metric.orthonormalizing(np.stack([e1, e2, u1, u2, u3], -1))
    else:
        # six-dimensional forms: basis c, X, Y, Z, A1, A2
        c, x, y, z, aa1, aa2 = np.eye(n)
        s1, s2, s3 = shifts.T[..., None]
        u_shift = s1 * aa1 + s2 * aa2 + s3 * z
        cphi = c + u_shift
        if key == "L6_2":
            u1 = a1 * cphi - a2 * x
            u2 = cphi
            u3 = -6 * a1 * cphi - 11 * a2 * x - a3 * y
            which = "T2"
            base_t = (0.2 * a1 / a3 * (a1 * c + a2 * x + a3 * y) + a2 * aa1)
            c_coef = 0.2 * a1 * a1 / a3
        else:  # L6_1 and L6_3 share a row
            u1 = -2 * a1 * cphi + a2 * x + a3 * y
            u2 = np.tile(x, (len(rows), 1))
            u3 = cphi + aa1
            which = "T1"
            base_t = (a1 * c + a2 * x + a3 * y - 3 * a1 * aa1 - 3 * a3 * z)
            c_coef = a1
        e1 = algebra.bracket_float(u1, u2)
        e2 = 2.0 * algebra.bracket_float(u1, u3)
        u23 = algebra.bracket_float(u2, u3)
        # the automorphism c -> c + U sends T to T + (c-coefficient of T) U
        expected = base_t + c_coef * u_shift
        metric = Metric.orthonormalizing(np.stack([u1, u2, u3, e1, e2, u23],
                                                  -1))
    vecs = [e1, e2, u1, u2, u3]
    if np.ndim(alphas) == 1:
        vecs, expected, metric = [v[0] for v in vecs], expected[0], metric[0]
    return NormalFormFrame(key, algebra, metric, vecs[:2], vecs[2:],
                           expected, which)
