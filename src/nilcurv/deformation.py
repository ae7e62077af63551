"""One-parameter metric deformations, scaled Ricci limits, and the
closed-form Ricci-extremal candidate vectors.

A deformation moves along a diagonal geodesic in the space of inner
products: g_t(U, V) = <exp(D t) U, V> with D diagonal in a chosen
orthonormal frame. After scaling by 2 exp(-t d), the deformed Ricci
operator converges to a limit operator whose extremal eigenvectors have
closed forms when the exponent pattern is (+1 x p, 0, -1 x q). The
candidate constructions also take a stacked Metric, one per row of
vectors (..., n): the scalar call is the N=1 case of the stacked one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import NilpotentAlgebra, Subspace
from .curvature import (
    Metric,
    RicciReport,
    frame_structure,
    one_or_rows,
    raise_first_failure,
    ricci_frame,
)

OVERFLOW_LIMIT = 700.0
# the t at which convergence_check compares directions
T_GRID = tuple(float(2 ** k) for k in range(0, 11))
# inner products at or below this count as zero in the p = 2, q = 3 frame
EU_PRECONDITION_TOL = 1e-10
# g-orthonormality is tested to max(ORTHONORMAL_ABS, ORTHONORMAL_COND *
# eps * cond(G)): the rounding of a Cholesky-built frame grows with cond(G)
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 19). On
# 9,000 random metrics the two-step frames reached 1.01 eps cond(G), and
# on 20,000 the Cholesky frames of Metric reached 0.93 eps cond(G).
ORTHONORMAL_ABS = 1e-10
ORTHONORMAL_COND = 16.0


def _inner(g, x, y):
    return np.einsum("...i,...ij,...j->...", x, g, y)


def orthonormal_tol(metric: Metric) -> float | np.ndarray:
    """Bound on |<u, v> - delta_uv| for a g-orthonormal system, one per
    row of a stacked metric; cond(G) is the ratio of the extreme
    eigenvalues of the SPD Gram matrix."""
    w = np.linalg.eigvalsh(metric.gram)
    return np.maximum(ORTHONORMAL_ABS, ORTHONORMAL_COND
                      * np.finfo(float).eps * (w[..., -1] / w[..., 0]))


class OverflowGuardError(ValueError):
    """|lambda_i * t| too large for a stable exponential."""


class CandidateError(ValueError):
    """Preconditions of a closed-form candidate construction violated."""


@dataclass
class DeformationSpec:
    """An exponent pattern `lambdas` on a metric `base` and a
    g-orthonormal `frame` (columns), or on each row of a stacked base
    with its (..., n, n) stack of frames. `lambdas` is one pattern of
    shape (n,), shared by the rows, or one pattern per row, of shape
    (..., n) for the batch shape (...) of the base and frames. The frame
    of a row that is not orthonormal raises the ValueError of that row's
    single spec; `spec[rows]` takes rows of the checked frames as they
    are."""
    base: Metric
    lambdas: np.ndarray
    frame: np.ndarray | None = None  # columns; defaults to base.frame

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if self.frame is None:
            self.frame = self.base.frame
        self.frame = np.asarray(self.frame, dtype=float)
        n = self.base.n
        if self.lambdas.shape[-1:] != (n,):
            raise ValueError("lambdas must have length n")
        if not np.all(np.isfinite(self.lambdas)):
            raise ValueError("lambdas must be finite")
        gram_err = np.abs(self.frame.mT @ self.base.gram @ self.frame
                          - np.eye(n)).max(axis=(-2, -1))
        if self.lambdas.ndim > 1 and self.lambdas.shape[:-1] \
                != gram_err.shape:
            raise ValueError("lambdas must have one row per row of the base")
        raise_first_failure(ValueError, [
            (gram_err > orthonormal_tol(self.base),
             "frame not orthonormal for base ({:.2e})", gram_err)])

    def __getitem__(self, rows) -> "DeformationSpec":
        view = DeformationSpec.__new__(DeformationSpec)
        view.base = self.base[rows]     # a single base raises TypeError
        view.lambdas = self.lambdas[rows] if self.lambdas.ndim > 1 \
            else self.lambdas
        view.frame = self.frame[rows] if self.frame.ndim > 2 else self.frame
        return view

    @property
    def n(self) -> int:
        return self.base.n


def _check_t(spec: DeformationSpec, t) -> None:
    """OverflowGuardError unless every t, one per row or one for all, is
    finite and keeps |lambda_i * t| of its rows within OVERFLOW_LIMIT."""
    t = np.abs(t)
    if not np.isfinite(t.max(initial=0.0)):    # NaN or inf if one is not
        raise OverflowGuardError("t must be finite")
    top = np.abs(spec.lambdas).max(axis=-1, initial=0.0)
    if (top * t).max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowGuardError(f"|lambda_i * t| exceeds {OVERFLOW_LIMIT}")


def deformed_metric(spec: DeformationSpec, t: float) -> Metric:
    """Gram matrix of g_t in the original basis: the direct reference
    for `deformed_ricci` in the tests and in the curvature-sweep
    benchmark check (perfbench/workloads.py); one t or one per row."""
    _check_t(spec, t)
    finv = np.linalg.inv(spec.frame)
    scale = np.exp(spec.lambdas * np.asarray(t, float)[..., None])
    gram = finv.mT @ (scale[..., None] * np.eye(spec.n)) @ finv
    return Metric(0.5 * (gram + gram.mT))


def exponent_tensor(lambdas) -> np.ndarray:
    """x[i, j, k] = lambda_k - lambda_i - lambda_j: the g_t-orthonormal
    frame E_i = exp(-lambda_i t / 2) e_i has the structure constants
    c_ijk exp(x[i, j, k] t / 2), and the Ricci form in the coordinates of
    e has the weights exp(x[i, j, k] t). Patterns (..., n) give
    (..., n, n, n)."""
    lam = np.asarray(lambdas, float)
    return (lam[..., None, None, :] - lam[..., :, None, None]
            - lam[..., None, :, None])


def deformed_ricci_frame(spec: DeformationSpec, algebra: NilpotentAlgebra,
                         t) -> np.ndarray:
    """Matrix of ric_t in the coordinates of the (undeformed) frame:
    ricci_frame of the base frame structure constants with the weights
    exp(x t) of `exponent_tensor`; a (..., n, n) stack for a stacked
    spec, at one t or at one t per row."""
    return _ricci_frame_at(spec, frame_structure(algebra, spec.base,
                                                 spec.frame), t)


def _ricci_frame_at(spec: DeformationSpec, c: np.ndarray, t) -> np.ndarray:
    """deformed_ricci_frame of spec at t from its frame tensor c."""
    _check_t(spec, t)
    t = np.asarray(t, float)[..., None, None, None]
    return ricci_frame(c, np.exp(exponent_tensor(spec.lambdas) * t))


def deformed_ricci(spec: DeformationSpec, algebra: NilpotentAlgebra,
                   t) -> RicciReport:
    """Ricci report of g_t, computed in the g_t-orthonormal frame
    E_i = exp(-lambda_i t / 2) e_i; t that broadcasts with the spec's
    batch shape gives a stacked report, each row its single call's.

    The frame structure constants of g_t are the base ones scaled by
    exp(x t / 2) (`exponent_tensor`); a common exponent shift per row and
    t keeps the eigenproblem finite even when the raw entries overflow.
    For moderate t this agrees with ricci_operator on deformed_metric.
    Eigenvectors are returned with unit Euclidean norm.
    """
    _check_t(spec, t)
    c = frame_structure(algebra, spec.base, spec.frame)
    t = np.asarray(t, float)[..., None, None, None]
    expo = 0.5 * t * exponent_tensor(spec.lambdas)
    # drop numerical-noise entries: their formal exponents would otherwise
    # dominate the shift and crush the genuine terms to zero
    size = np.abs(c)
    nz = size > 1e-12 * (size.max(axis=(-3, -2, -1), keepdims=True) + 1.0)
    shift = np.where(nz, expo, -np.inf).max(axis=(-3, -2, -1), keepdims=True)
    shift[shift == -np.inf] = 0.0
    ct = np.where(nz, c, 0.0) * np.exp(expo - shift)
    with np.errstate(over="ignore"):
        scale = np.exp(2.0 * shift[..., 0, 0, 0])
    shrink = np.exp(-spec.lambdas * t[..., 0, 0] / 2.0)[..., None, :]
    report = RicciReport.from_frame_matrix(
        ricci_frame(ct), spec.frame @ (shrink * np.eye(spec.n)), scale)
    norms = np.linalg.norm(report.eigenvectors, axis=-2, keepdims=True)
    norms[norms == 0.0] = 1.0
    report.eigenvectors = report.eigenvectors / norms
    return report


@dataclass
class ScaledRicciLimit:
    """The limit of one spec; phi0, c and the mask of Lambda have the
    spec's leading batch axes. With one exponent pattern (lambdas of
    shape (n,)) d, Lambda, gap, p and q belong to it and are shared by
    the rows, and A and each J_k are stacks. With one pattern per row d
    and gap are per row, and Lambda, p, q, J and A, which need a single
    pattern, are left unset: `limit[rows]` of rows that share one
    pattern is the limit of those rows with them set."""
    spec: DeformationSpec
    d: float | np.ndarray
    Lambda: list[tuple[int, int, int]] | None  # (i, j, k), i > j, 0-based
    phi0: np.ndarray                        # frame coordinates
    gap: float | np.ndarray                 # d minus second-largest exponent
    c: np.ndarray                           # frame structure tensor
    p: int | None = None
    q: int | None = None
    J: list[np.ndarray] = field(default_factory=list)   # J_k, k < p
    A: np.ndarray | None = None
    mask: np.ndarray | None = None          # 0/1 weights of Lambda, [i, j, k]

    def __getitem__(self, rows) -> "ScaledRicciLimit":
        spec = self.spec[rows]
        lam = spec.lambdas.reshape(-1, spec.n)
        if not (lam == lam[0]).all():
            raise ValueError("the rows must share one exponent pattern")
        spec.lambdas = lam[0]
        d, gap, mask = (x[rows] if np.ndim(x) > k else x for x, k in (
            (self.d, 0), (self.gap, 0), (self.mask, 3)))
        return _with_blocks(ScaledRicciLimit(
            spec=spec, d=d, Lambda=None, phi0=self.phi0[rows], gap=gap,
            c=self.c[rows], mask=mask))

    @property
    def has_block_structure(self) -> bool:
        return self.p is not None

    def sum_J_squared(self) -> np.ndarray:
        return sum(j @ j for j in self.J)

    def deformed_ricci_frame(self, t) -> np.ndarray:
        """deformed_ricci_frame(spec, algebra, t), at one t or at one t
        per row, from the frame tensor c that the limit holds."""
        return _ricci_frame_at(self.spec, self.c, t)

    def phi0_eigenvalues(self) -> np.ndarray:
        """Sorted real parts of the eigenvalues of phi0, which is not
        symmetric; one row of them per row of a stacked phi0."""
        return np.sort(np.linalg.eigvals(self.phi0).real)


def _lambda_triples(lam: np.ndarray) -> tuple[float, np.ndarray, float]:
    """d, the (n, n, n) mask of the maximizing set Lambda and the gap to
    the runner-up, off `exponent_tensor` at the triples (i, j, k) with
    i > j (the others take -inf); n < 2 leaves none and raises ValueError.
    Patterns (..., n) give them per row, each its single call's.

    Ties are decided with the tolerance 1e-12 (max |lambda_i| + 1), since
    membership in Lambda changes the limit discontinuously. On integer
    exponents the float sums are exact, so ties are too.
    """
    axes = (-3, -2, -1)
    expo = np.where(np.tri(lam.shape[-1], k=-1, dtype=bool)[:, :, None],
                    exponent_tensor(lam), -np.inf)
    d = expo.max(axis=axes)
    if (d == -np.inf).any():
        raise ValueError("the scaled Ricci limit needs dimension >= 2")
    tol = 1e-12 * (np.abs(lam).max(axis=-1) + 1.0)
    mask = expo >= (d - tol)[..., None, None, None]
    return d, mask, d - np.where(mask, -np.inf, expo).max(axis=axes)


def _detect_pq(lam: np.ndarray) -> tuple[int, int] | None:
    """(p, q) if lambdas are (+1 x p, 0 x (n-p-q), -1 x q) in frame order."""
    lam = lam.tolist()
    n = len(lam)
    p = next((i for i, x in enumerate(lam) if not abs(x - 1.0) < 1e-12), n)
    q = next((i for i, x in enumerate(lam[::-1]) if not abs(x + 1.0) < 1e-12),
             n)
    if p < 1 or q < 2 or not all(abs(x) < 1e-12 for x in lam[p:n - q]):
        return None
    return p, q


def scaled_ricci_limit(spec: DeformationSpec,
                       algebra: NilpotentAlgebra) -> ScaledRicciLimit:
    """Limit of 2 exp(-t d) ric_t as t -> infinity, in frame coordinates:
    ricci_frame with the mask of Lambda as weights. With the (p, q)
    pattern, J_k = c[-q:, -q:, k] and A_kl = (1/2) tr(J_k J_l^T).

    A stacked spec gives one limit whose phi0, c, A and J_k are stacks,
    each row its single spec's to the bit; d, Lambda, gap, p and q depend
    on the lambdas only. With one pattern per row, d, the gap and the mask
    of Lambda are per row, phi0 comes from one ricci_frame with the rows'
    masks, and each row of them and of `limit[rows]` is its single
    spec's to the bit."""
    d, mask, gap = _lambda_triples(spec.lambdas)
    c = frame_structure(algebra, spec.base, spec.frame)
    return _with_blocks(ScaledRicciLimit(
        spec=spec, d=d, Lambda=None, phi0=2.0 * ricci_frame(c, mask),
        gap=gap, c=c, mask=mask))


def _with_blocks(limit: ScaledRicciLimit) -> ScaledRicciLimit:
    """limit, with Lambda and, for the (p, q) pattern, p, q, J_k and A
    set if its spec has one exponent pattern."""
    lam = limit.spec.lambdas
    if lam.ndim > 1:
        return limit
    n, c = len(lam), limit.c
    limit.Lambda = [tuple(t) for t in np.argwhere(
        limit.mask.reshape(-1, n, n, n)[0]).tolist()]
    pq = _detect_pq(lam)
    if pq is not None:
        p, q = pq
        # [..., k, r, s] = J_k[r, s]
        js = np.ascontiguousarray(np.moveaxis(c[..., -q:, -q:, :p], -1, -3))
        limit.p, limit.q = p, q
        limit.J = [js[..., k, :, :] for k in range(p)]
        limit.A = 0.5 * np.trace(js[..., :, None, :, :]
                                 @ js[..., None, :, :, :].mT,
                                 axis1=-2, axis2=-1)
    return limit


@dataclass
class ExtremalCandidate:
    T: np.ndarray                 # basis coordinates; stacked, (N, n)
    lambda_extreme: float         # stacked, (N,), as is simple
    construction: str             # e1u2 | eumin | e2u3_T1 | e2u3_T2 |
                                  # two_step | generic_limit
    simple: bool
    kind: str = "max"             # max | min

    @property
    def is_zero(self) -> bool | np.ndarray:
        return np.linalg.norm(self.T, axis=-1) < 1e-12


def extremal_T(limit: ScaledRicciLimit) -> ExtremalCandidate:
    """Closed-form top eigenvector T = Y + sum_r eta_r e_(n-q+r) of the
    scaled Ricci limit, in the frame coordinates of its tensor c:
    Y = sum_rs (J_1)_rs c[n-q+r, n-q+s, :], xi_r = sum_(k<p, s, m)
    (J_k)_rs Y_m c[n-q+s, m, k] and eta = (lambda I - sum_k J_k^2)^-1 xi,
    for the top eigenvalue lambda of A, which must be simple; phi0 t =
    lambda t is checked. If the first frame vector is not A's top
    eigenvector a, assumption (II) rotates the first p onto A's
    eigenbasis, which leaves xi and sum_k J_k^2 as they are and turns J_1
    into sum_l a_l J_l.
    """
    if not limit.has_block_structure:
        raise CandidateError("exponent pattern is not (+1 x p, 0, -1 x q)")
    p, q = limit.p, limit.q
    avals, avecs = np.linalg.eigh(limit.A)
    lam_max = avals[-1]
    if lam_max <= 1e-12:
        raise CandidateError("A has no positive top eigenvalue "
                             "(J_k all zero or degenerate)")
    if p > 1 and avals[-1] - avals[-2] <= 1e-8 * (np.abs(avals).max() + 1.0):
        return ExtremalCandidate(T=np.zeros(limit.spec.n),
                                 lambda_extreme=lam_max,
                                 construction="generic_limit", simple=False)
    js, top = np.array(limit.J), avecs[:, -1]
    j1 = js[0] if p == 1 or abs(abs(top[0]) - 1.0) <= 1e-12 \
        else (top @ js.reshape(p, q * q)).reshape(q, q)
    low = limit.c[-q:]                     # c[n-q+s, m, k], indexed [s, m, k]
    y = np.tensordot(j1, low[:, -q:], 2)
    xi = np.einsum("krs,sk->r", js, (y @ low)[:, :p])
    eta = np.linalg.solve(lam_max * np.eye(q) - limit.sum_J_squared(), xi)
    tf = y + np.pad(eta, (len(y) - q, 0))
    cand = ExtremalCandidate(T=limit.spec.frame @ tf, lambda_extreme=lam_max,
                             construction="generic_limit", simple=True)
    resid = np.abs(limit.phi0 @ tf - lam_max * tf).max()
    if not cand.is_zero and resid > 1e-6 * (np.abs(tf).max() + 1.0):
        raise CandidateError(f"limit eigen-equation failed ({resid:.2e})")
    return cand


def _orthonormal_checks(metric: Metric, vectors, names) -> list:
    """`raise_first_failure` checks that the vectors are g-orthonormal:
    each a unit vector, then orthogonal to the earlier ones."""
    v = np.stack(np.broadcast_arrays(*vectors), axis=-1)
    bad = np.abs(v.mT @ metric.gram @ v - np.eye(len(names))) \
        > orthonormal_tol(metric)[..., None, None]
    return [(bad[..., i, j], f"{nm} is not a unit vector" if i == j
             else f"{names[j]} and {nm} are not orthogonal")
            for i, nm in enumerate(names) for j in [i, *range(i)]
            ] if bad.any() else []


def candidate_e1u2(algebra: NilpotentAlgebra, metric: Metric, e, u1, u2
                   ) -> ExtremalCandidate:
    """T = 2<u12,e> u12 + <u212,e> u1 - <u112,e> u2 for orthonormal e,u1,u2
    (stacked, for each row; the first row not orthonormal raises)."""
    e, u1, u2 = (np.asarray(v, float) for v in (e, u1, u2))
    raise_first_failure(CandidateError, _orthonormal_checks(
        metric, [e, u1, u2], ["e", "u1", "u2"]))
    g = metric.gram
    u12 = algebra.bracket_float(u1, u2)
    u112 = algebra.bracket_float(u1, u12)
    u212 = algebra.bracket_float(u2, u12)
    a = _inner(g, e, u12)
    t = (2.0 * a[..., None] * u12
         + _inner(g, e, u212)[..., None] * u1
         - _inner(g, e, u112)[..., None] * u2)
    return ExtremalCandidate(T=t, lambda_extreme=a * a,
                             construction="e1u2", simple=np.abs(a) > 1e-12)


def lemma5a_deformation(algebra: NilpotentAlgebra, metric: Metric,
                        e, u1, u2
                        ) -> tuple[DeformationSpec, ExtremalCandidate]:
    """Deformation realizing the candidate of candidate_e1u2 as the maximal
    Ricci eigendirection in the limit: exponent +1 on e, -1 on u1, u2.

    Requires <e, [u1, u2]> != 0, which makes the top limit eigenvalue
    simple; otherwise, or for a zero T, it raises CandidateError (for
    stacked rows, the first bad row's).
    """
    cand = candidate_e1u2(algebra, metric, e, u1, u2)
    raise_first_failure(CandidateError, [
        (cand.is_zero, "candidate vector T is zero"),
        (~np.asarray(cand.simple), "<e, [u1, u2]> = 0: the top limit "
                                   "eigenvalue is not simple")])
    return spec_for_pattern(algebra, metric, [e], [u1, u2]), cand


def _eu_checks(algebra, metric, e1, e2, u1, u2, u3):
    """[u1, u2], a = <e1, u12>, b = <e2, u13> and the preconditions of the
    p = 2, q = 3 frame, as `raise_first_failure` checks."""
    g = metric.gram
    u12 = algebra.bracket_float(u1, u2)
    u13 = algebra.bracket_float(u1, u3)
    u23 = algebra.bracket_float(u2, u3)
    checks = _orthonormal_checks(metric, [e1, e2, u1, u2, u3],
                                 ["e1", "e2", "u1", "u2", "u3"])
    for name, x, y in (("<e1,u13>", e1, u13), ("<e1,u23>", e1, u23),
                       ("<e2,u12>", e2, u12), ("<e2,u23>", e2, u23)):
        v = _inner(g, x, y)
        checks.append((np.abs(v) > EU_PRECONDITION_TOL,
                       f"precondition {name} = 0 violated (got {{:.3e}})", v))
    a, b = _inner(g, e1, u12), _inner(g, e2, u13)
    checks += [(np.abs(a) <= EU_PRECONDITION_TOL,
                "precondition <e1,u12> != 0 violated"),
               (np.abs(b) <= EU_PRECONDITION_TOL,
                "precondition <e2,u13> != 0 violated")]
    return u12, a, b, checks


def candidate_T1_T2(algebra: NilpotentAlgebra, metric: Metric, e1, e2, u1,
                    u2, u3) -> tuple[ExtremalCandidate, ExtremalCandidate]:
    """The two Ricci-maximal candidates of the p=2, q=3 construction.

    Requires |a| > |b| on top of the orthogonality preconditions. Stacked
    inputs give stacked candidates in one pass, the scalar call being the
    N=1 case; the first row that fails raises.
    """
    e1, e2, u1, u2, u3 = (np.asarray(v, float) for v in (e1, e2, u1, u2, u3))
    g = metric.gram
    u12, a, b, checks = _eu_checks(algebra, metric, e1, e2, u1, u2, u3)
    raise_first_failure(CandidateError, checks + [(
        np.abs(a) <= np.abs(b),
        "requires |a| > |b|, got |a|={:.3e}, |b|={:.3e}", np.abs(a),
        np.abs(b))])
    lam = a * a
    u112 = algebra.bracket_float(u1, u12)
    a, b, p1, p2, p3, p4 = (x[..., None] for x in (
        a, b, _inner(g, e1, algebra.bracket_float(u2, u12)),
        _inner(g, e2, algebra.bracket_float(u3, u12)),
        _inner(g, e1, u112), _inner(g, e2, u112)))
    t1 = (2.0 * (b * p1 + a * p2) * u1 - 3.0 * b * p3 * u2
          - 3.0 * a * p4 * u3 + 6.0 * a * b * u12)
    t2 = ((a * p1 + b * p2) / (2 * a * a + b * b) * u1
          - p3 / (2 * a) * u2
          - b * p4 / (a * a + b * b) * u3 + u12)
    return (ExtremalCandidate(T=t1, lambda_extreme=lam,
                              construction="e2u3_T1", simple=True),
            ExtremalCandidate(T=t2, lambda_extreme=lam,
                              construction="e2u3_T2", simple=True))


def complement_frame(metric: Metric, vectors) -> np.ndarray:
    """g-orthonormal basis (columns) of the g-orthogonal complement of
    span(vectors): the null space of V^T G from its SVD, made
    g-orthonormal through the Cholesky factor of its Gram matrix. Vectors
    (..., n) and a stacked metric give one basis per row, each its single
    call's, if all rows have the same rank."""
    w = np.asarray(vectors, float)
    w = np.ascontiguousarray(np.moveaxis(w, 0, -2)) if w.ndim > 2 \
        else w.reshape(-1, metric.n)
    _, s, vt = np.linalg.svd(w @ metric.gram)
    # s descends, so s[..., :1] is its largest value (none for no vectors)
    ranks = np.sum(s > 1e-12 * np.maximum(s[..., :1], 1.0), axis=-1)
    rank = int(ranks.flat[0])
    if (ranks != rank).any():
        raise ValueError("the rows of vectors span different dimensions")
    b = vt[..., rank:, :].mT
    return b @ np.linalg.inv(np.linalg.cholesky(b.mT @ metric.gram @ b)).mT


def two_step_deformation(algebra: NilpotentAlgebra, metric: Metric, e
                         ) -> tuple[DeformationSpec, ExtremalCandidate]:
    """The two-step candidate T = sum_{i,j} <e, u_ij> u_ij over a
    g-orthonormal basis u of (g')^perp, its eigenvalue (1/2) sum_{i,j}
    <e, u_ij>^2 (as `extremal_T`), and the deformation realizing it:
    exponent +1 on e, -1 on u, and 0 on the rest of g'.

    Requires a two-step algebra and a unit e in g'. T is nonzero for
    nonzero e: the defining map is injective on g'.
    """
    if not algebra.is_two_step() or algebra.is_abelian():
        raise CandidateError("algebra must be two-step nilpotent "
                             "(and nonabelian)")
    e = np.asarray(e, float)
    gp = algebra.derived_algebra()
    if not gp.contains_float(e):
        raise CandidateError("e must lie in the derived algebra")
    if abs(metric.norm2(e) - 1.0) > orthonormal_tol(metric):
        raise CandidateError("e must be a unit vector")
    u = complement_frame(metric, gp.float_basis).T
    uij = algebra.bracket_float(u[:, None], u[None, :])
    coef = uij @ metric.gram @ e
    cand = ExtremalCandidate(T=np.tensordot(coef, uij, 2),
                             lambda_extreme=0.5 * np.sum(coef * coef),
                             construction="two_step", simple=True)
    return spec_for_pattern(algebra, metric, [e], list(u)), cand


def spec_for_pattern(algebra: NilpotentAlgebra, metric: Metric,
                     plus: list[np.ndarray],
                     minus: list[np.ndarray]) -> DeformationSpec:
    """DeformationSpec with exponents +1 on `plus`, -1 on `minus` and 0 on
    their complement frame; the given vectors must be g-orthonormal. The
    middle block has one exponent, so g_t does not depend on the basis
    chosen inside it. Vectors of one shape (..., n) and a metric stacked
    alike give the stacked spec whose rows are their single specs to the
    bit."""
    n = algebra.n
    p, q = len(plus), len(minus)
    chosen = [np.asarray(v, float) for v in plus + minus]
    raise_first_failure(CandidateError, _orthonormal_checks(
        metric, chosen, [f"v{i}" for i in range(len(chosen))]))
    middle = complement_frame(metric, chosen)
    v = np.stack(chosen, axis=-1)
    frame = np.concatenate([v[..., :p], middle, v[..., p:]], axis=-1)
    lam = np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])
    return DeformationSpec(base=metric, lambdas=lam, frame=frame)


def projective_distance(u, v) -> float | np.ndarray:
    """Sine of the principal angle between the lines R u and R v: the norm
    of the rejection of u^ from v^, which unlike sqrt(1 - cos^2) keeps
    its relative precision for nearly parallel lines. Rows (..., n) give
    each pair's, bitwise (np.vecdot sums contiguous rows as np.dot)."""
    u, v = np.ascontiguousarray(u, float), np.ascontiguousarray(v, float)
    nu, nv = (np.sqrt(np.vecdot(w, w))[..., None] for w in (u, v))
    if not (nu.all() and nv.all()):
        raise ValueError("projective distance undefined for the zero vector")
    u, v = u / nu, v / nv
    rejection = u - np.vecdot(u, v)[..., None] * v
    dist = np.fmin(1.0, np.sqrt(np.vecdot(rejection, rejection)))
    return float(dist) if dist.ndim == 0 else dist


# grid rows per block in worst_gap's screen; bounds its temporary arrays
_GAP_ROWS = 64
# bound on |screened distance - projective_distance| in worst_gap
_GAP_SCREEN = 1e-6


def worst_gap(grid, cands) -> float:
    """max over rows g of grid of min over rows c of cands of
    projective_distance(g, c), bit for bit.

    A screen in blocks of _GAP_ROWS grid rows takes sqrt(1 - |G^ C^T|^2)
    with normalized rows. It is off from projective_distance by at most
    sqrt(2 |dc|), about 1e-7 for a rounding error dc in the cosine. So the
    scalar formula's argmax row lies among the rows whose screened minimum
    is within 2 _GAP_SCREEN of the largest, and each row's argmin among
    the candidates within 2 _GAP_SCREEN of its screened minimum; only
    those pairs go to one projective_distance call. The bound holds
    while squared row norms neither overflow nor underflow. A zero row, or
    no row at all, raises ValueError."""
    g = np.asarray(grid, float)
    c = np.asarray(cands, float)
    if len(g) == 0 or len(c) == 0:
        raise ValueError("worst_gap needs a grid row and a candidate")
    gnorm, cnorm = np.linalg.norm(g, axis=1), np.linalg.norm(c, axis=1)
    if not (gnorm.all() and cnorm.all()):
        raise ValueError("projective distance undefined for the zero vector")
    gn, cn = g / gnorm[:, None], c / cnorm[:, None]

    def screen(rows):
        cos = np.minimum(np.abs(rows @ cn.T), 1.0)
        return np.sqrt(1.0 - cos * cos)

    mins = np.concatenate([screen(gn[s:s + _GAP_ROWS]).min(axis=1)
                           for s in range(0, len(gn), _GAP_ROWS)])
    window = 2.0 * _GAP_SCREEN
    rows = np.flatnonzero(mins >= mins.max() - window)
    near = [np.flatnonzero(screen(gn[i:i + 1])[0] <= mins[i] + window)
            for i in rows]
    counts = [len(j) for j in near]
    dist = projective_distance(g[rows.repeat(counts)], c[np.concatenate(near)])
    return float(np.minimum.reduceat(dist, np.cumsum(counts) - counts).max())


def sphere_grid(subspace: Subspace, resolution: float) -> np.ndarray:
    """Directions of a subspace of dimension 1, 2 or 3, in g-coordinates:
    they cover its projective space to the given sine-distance resolution
    in the coordinates of its RREF basis (a Fibonacci sphere when the
    dimension is 3); any other dimension raises ValueError."""
    dim = subspace.dim
    if dim not in (1, 2, 3):
        raise ValueError(f"sphere_grid covers dimensions 1 to 3, not {dim}")
    if dim == 1:
        coords = np.array([[1.0]])
    elif dim == 2:
        k = int(np.ceil(np.pi / resolution)) + 1
        angles = np.linspace(0.0, np.pi, k, endpoint=False)
        coords = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        count = max(64, int(8.0 / resolution ** 2))
        idx = np.arange(count, dtype=float) + 0.5
        phi = np.arccos(1.0 - 2.0 * idx / count)
        theta = np.pi * (1.0 + 5 ** 0.5) * idx
        coords = np.column_stack([np.cos(theta) * np.sin(phi),
                                  np.sin(theta) * np.sin(phi), np.cos(phi)])
    return coords @ subspace.float_basis


# singular values at or below this count as zero in complete_basis
BASIS_RANK_TOL = 1e-9


def complete_basis(vectors) -> list[np.ndarray]:
    """Standard basis vectors that complete independent `vectors` to a
    basis: e_0, ..., e_{n-1} in order, each kept when it raises the
    numerical rank (singular values above BASIS_RANK_TOL).

    The scan stops once it holds n vectors: n columns of length n have
    rank at most n, so no later e_i could be kept. Dependent `vectors`
    keep the rank below the column count, so no e_i is ever kept and the
    result is [] either way.

    Rows of vectors (N, n) are completed in one scan (an e_i not kept is a
    zero column), as n - k stacks that are zero where a row keeps fewer."""
    vs = [np.asarray(v, float) for v in vectors]
    shape, k = np.broadcast(*vs).shape, len(vs)
    n = shape[-1]
    m = np.zeros((*shape, k + n))
    for j, v in enumerate(vs):
        m[..., j] = v
    m = m.reshape(-1, n, k + n)
    count = np.full(len(m), k)
    for i in range(n):
        if count.min() >= n:
            break
        m[:, i, k + i] = 1.0
        # the numerical rank, as np.linalg.matrix_rank with this tol
        kept = (np.linalg.svd(m[..., :k + i + 1], compute_uv=False)
                > BASIS_RANK_TOL).sum(axis=-1) > count
        m[:, i, k + i] = kept
        count += kept
    kept = np.diagonal(m[..., k:], axis1=1, axis2=2) == 1.0
    if len(shape) == 1:
        return list(np.eye(n)[kept[0]])
    # each row's kept e_i in order, then zero vectors
    slots = np.argsort(~kept, axis=1, kind="stable")[:, :max(n - k, 0)]
    return list((np.eye(n)[slots] * np.take_along_axis(
        kept, slots, axis=1)[..., None]).swapaxes(0, 1))


def codim1_adapted_metric(algebra: NilpotentAlgebra, c, u1
                          ) -> tuple[Metric, np.ndarray]:
    """(metric, e): the metric in which c, u1, [c, u1] and their
    completion by standard vectors (`complete_basis`) are orthonormal,
    with e the first completion vector; rows of u1 give stacks of both.
    Bad rows raise the error of one of their scalar calls."""
    c, u1 = np.asarray(c, float), np.asarray(u1, float)
    have = [c, u1, algebra.bracket_float(c, u1)]
    comp = complete_basis(have)
    # a scalar completion comes up short, a stacked one ends in zeros
    raise_first_failure(CandidateError, [(
        len(have) + len(comp) != algebra.n or ~comp[-1].any(axis=-1),
        "frame completion failed")])
    basis = np.stack(np.broadcast_arrays(*have, *comp), axis=-1)
    return Metric.orthonormalizing(basis), comp[0]


def lemma5_candidates(algebra: NilpotentAlgebra, seed: int, samples: int
                      ) -> tuple[list[tuple[ExtremalCandidate,
                                            DeformationSpec]], list[str]]:
    """(pairs, notes): up to `samples` (candidate, deformation) pairs of
    the Lemma 5 construction that fits the structure, drawn from a
    generator seeded with `seed`, and notes on the samples skipped.

    Two-step: a random metric and unit e in g' (`two_step_deformation`).
    With a codimension-one abelian ideal a and complement c: a random
    unit u1 in a with [c, u1] != 0, in the metric of
    `codim1_adapted_metric`, and e = [c, u1], its third frame vector
    (`lemma5a_deformation` with u2 = c). Then <e, [u1, c]> = -1, so the
    top limit eigenvalue is simple and T lies in P(a). Otherwise, and on
    an abelian algebra, no pairs and a note why."""
    if algebra.is_abelian():
        return [], ["abelian: Ricci vanishes for every metric"]
    rng = np.random.default_rng(seed)
    notes = []
    out = []
    if algebra.is_two_step():
        gp = algebra.derived_algebra().float_basis
        for k in range(samples):
            metric = Metric.random(algebra.n, rng)
            e = rng.uniform(-1.0, 1.0, size=gp.shape[0]) @ gp
            nrm = np.sqrt(metric.norm2(e))
            if nrm < 1e-6:
                notes.append(f"sample {k}: derived direction degenerate")
                continue
            try:
                spec, cand = two_step_deformation(algebra, metric, e / nrm)
            except CandidateError as exc:
                notes.append(f"sample {k}: {exc}")
                continue
            if cand.is_zero:
                notes.append(f"sample {k}: zero candidate")
                continue
            out.append((cand, spec))
        return out, notes
    ideal = algebra.find_codim1_abelian_ideal()
    if ideal is None:
        notes.append("no closed-form construction for this structure; "
                     "reporting the expected subspace only")
        return out, notes
    a_basis = ideal.float_basis
    c_vec = np.array(ideal.complement()[0], float)
    for k in range(samples):
        u1 = rng.uniform(-1.0, 1.0, size=a_basis.shape[0]) @ a_basis
        u1 = u1 / np.linalg.norm(u1)
        e = algebra.bracket_float(c_vec, u1)
        if np.linalg.norm(e) < 1e-8:
            continue
        try:
            metric, _ = codim1_adapted_metric(algebra, c_vec, u1)
            spec, cand = lemma5a_deformation(algebra, metric, e, u1, c_vec)
        except CandidateError as exc:
            notes.append(f"sample {k}: {exc}")
            continue
        out.append((cand, spec))
    return out, notes


@dataclass
class ConvergenceTrace:
    rows: list[tuple[float, float, float]]  # (t, extreme eigenvalue, distance)
    converged: bool

    def best_distance(self) -> float:
        return min(r[2] for r in self.rows)


def convergence_check(spec: DeformationSpec, algebra: NilpotentAlgebra,
                      candidate: ExtremalCandidate, target: float = 1e-4):
    """Projective distance between the candidate line and the extremal
    eigendirection of ric_t at each t of T_GRID with |lambda_i t| <=
    OVERFLOW_LIMIT, from one `deformed_ricci` call over all of them.

    `converged` uses the best distance over the grid: once the eigenvector
    components across exponent blocks differ by more than the float
    precision (roughly exp(-spread * t) < machine epsilon), the recovered
    direction degrades again, which is not divergence.

    A stacked spec and candidate, T of shape (N, n) and one exponent
    pattern, give per row its trace or its single call's CandidateError.
    """
    ts = [t for t in T_GRID
          if np.abs(spec.lambdas * t).max(initial=0.0) <= OVERFLOW_LIMIT]
    report = deformed_ricci(spec, algebra, np.reshape(
        ts, (-1,) + (1,) * (spec.frame.ndim - 2)))
    k = -1 if candidate.kind == "max" else 0
    zero = np.reshape(candidate.is_zero, -1)
    rows = (len(ts), len(zero), spec.n)
    dists = projective_distance(
        report.eigenvectors[..., k].reshape(rows).swapaxes(0, 1),
        np.where(zero[:, None], 1.0, candidate.T).reshape(-1, 1, spec.n))
    lams = report.eigenvalues[..., k].reshape(rows[:2]).T
    return one_or_rows([
        CandidateError("candidate eigenvalue is not certified simple")
        if not simple else CandidateError("candidate vector is zero") if z
        else ConvergenceTrace(rows=list(zip(ts, lam, dist)),
                              converged=bool(dist) and min(dist) < target)
        for simple, z, lam, dist in zip(
            np.broadcast_to(candidate.simple, zero.shape), zero,
            lams.tolist(), dists.tolist())], np.ndim(candidate.T) == 2)


def stack_pairs(pairs) -> tuple[ExtremalCandidate, DeformationSpec]:
    """The (candidate, spec) pairs of `lemma5_candidates`, stacked into
    one candidate and one spec (one construction and exponent pattern)."""
    cands, specs = zip(*pairs)
    rows = {k: np.array([getattr(c, k) for c in cands])
            for k in ("T", "lambda_extreme", "simple")}
    return replace(cands[0], **rows), DeformationSpec(
        base=Metric(np.array([s.base.gram for s in specs])),
        lambdas=specs[0].lambdas, frame=np.array([s.frame for s in specs]))
