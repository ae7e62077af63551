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
from .curvature import Metric
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
    metric: Metric
    e_vectors: list[np.ndarray]     # e1, e2
    u_vectors: list[np.ndarray]     # u1, u2, u3
    expected_T: np.ndarray          # basis coordinates of the display value
    which: str                      # "T1" or "T2"
    alphas: tuple[float, float, float]
    shift: tuple[float, ...]

    def candidate(self) -> ExtremalCandidate:
        t1, t2 = candidate_T1_T2(self.algebra, self.metric,
                                 self.e_vectors[0], self.e_vectors[1],
                                 *self.u_vectors)
        return t1 if self.which == "T1" else t2

    def spec(self) -> DeformationSpec:
        return spec_for_pattern(self.algebra, self.metric,
                                self.e_vectors, self.u_vectors)


def normal_form_frame(key: str, alphas, shift=None) -> NormalFormFrame:
    """The explicit maximal-direction frame for one of FRAME_KEYS.

    alphas: three nonzero reals. shift: automorphism parameters --
    (beta1, beta2) for the five-dimensional form, mapping
    c -> c + (beta1 A + beta2 Z) / alpha1; three coefficients of
    (A1, A2, Z) for the six-dimensional forms, mapping c -> c + U.
    """
    if key not in FRAME_KEYS:
        raise KeyError(f"no normal-form frame for {key!r}")
    a1, a2, a3 = (float(a) for a in alphas)
    if min(abs(a1), abs(a2), abs(a3)) < 1e-12:
        raise CandidateError("alphas must be nonzero")
    algebra = _frame_algebra(key)
    n = algebra.n
    ident = np.eye(n)
    if key == "L5_lemma7a":
        # basis c, X, Y, Z, A
        c, x, y, z, a = (ident[:, i] for i in range(5))
        b1, b2 = (float(v) for v in (shift or (0.0, 0.0)))
        cphi = c + (b1 * a + b2 * z) / a1
        u1 = 6 * a1 * cphi + a2 * x
        u2 = cphi
        u3 = 10 * a1 * cphi + a3 * y
        e1 = -a2 * a
        e2 = np.sqrt(2.0) * (-10 * a1 * a2 * a + a2 * a3 * z)
        expected = (a1 * c + a2 * x + a3 * y
                    + (b1 - 0.5 * a2 * a3 / a1) * a + b2 * z)
        which = "T2"
        metric = Metric.orthonormalizing(
            np.column_stack([e1, e2, u1, u2, u3]))
        return NormalFormFrame(key, algebra, metric, [e1, e2], [u1, u2, u3],
                               expected, which, (a1, a2, a3), (b1, b2))
    # six-dimensional forms: basis c, X, Y, Z, A1, A2
    c, x, y, z, aa1, aa2 = (ident[:, i] for i in range(6))
    s1, s2, s3 = (float(v) for v in (shift or (0.0, 0.0, 0.0)))
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
        u2 = x
        u3 = cphi + aa1
        which = "T1"
        base_t = (a1 * c + a2 * x + a3 * y - 3 * a1 * aa1 - 3 * a3 * z)
        c_coef = a1
    u12 = algebra.bracket_float(u1, u2)
    u13 = algebra.bracket_float(u1, u3)
    u23 = algebra.bracket_float(u2, u3)
    e1 = u12
    e2 = 2.0 * u13
    # the automorphism c -> c + U sends T to T + (c-coefficient of T) * U
    expected = base_t + c_coef * u_shift
    metric = Metric.orthonormalizing(
        np.column_stack([u1, u2, u3, e1, e2, u23]))
    return NormalFormFrame(key, algebra, metric, [e1, e2], [u1, u2, u3],
                           expected, which, (a1, a2, a3), (s1, s2, s3))
