"""One-parameter metric deformations, scaled Ricci limits, and the
closed-form Ricci-extremal candidate vectors.

A deformation moves along a diagonal geodesic in the space of inner
products: g_t(U, V) = <exp(D t) U, V> with D diagonal in a chosen
orthonormal frame. After scaling by 2 exp(-t d), the deformed Ricci
operator converges to a limit operator whose extremal eigenvectors have
closed forms when the exponent pattern is (+1 x p, 0, -1 x q).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import NilpotentAlgebra, Subspace
from .curvature import Metric, RicciReport, frame_structure, ricci_frame

OVERFLOW_LIMIT = 700.0
# the t at which convergence_check compares directions
T_GRID = tuple(float(2 ** k) for k in range(0, 11))
# tilt of e toward [u1, u2] when lemma5a_deformation needs one
LEMMA5A_TILT = 1e-5
# inner products at or below this count as zero in the p = 2, q = 3 frame
EU_PRECONDITION_TOL = 1e-10
# g-orthonormality is tested to max(ORTHONORMAL_ABS, ORTHONORMAL_COND *
# eps * cond(G)): the rounding of a Cholesky-built frame grows with cond(G)
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 19). On
# 9,000 random metrics the two-step frames reached 1.01 eps cond(G), and
# on 20,000 the Cholesky frames of Metric reached 0.93 eps cond(G).
ORTHONORMAL_ABS = 1e-10
ORTHONORMAL_COND = 16.0


def orthonormal_tol(metric: Metric) -> float:
    """Bound on |<u, v> - delta_uv| for a g-orthonormal system; cond(G) is
    the ratio of the extreme eigenvalues of the SPD Gram matrix."""
    w = np.linalg.eigvalsh(metric.gram)
    return max(ORTHONORMAL_ABS,
               ORTHONORMAL_COND * np.finfo(float).eps * w[-1] / w[0])


class OverflowGuardError(ValueError):
    """|lambda_i * t| too large for a stable exponential."""


class CandidateError(ValueError):
    """Preconditions of a closed-form candidate construction violated."""


@dataclass
class DeformationSpec:
    base: Metric
    lambdas: np.ndarray
    frame: np.ndarray | None = None  # columns; defaults to base.frame

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if self.frame is None:
            self.frame = self.base.frame
        self.frame = np.asarray(self.frame, dtype=float)
        n = self.base.n
        if self.lambdas.shape != (n,):
            raise ValueError("lambdas must have length n")
        if not np.all(np.isfinite(self.lambdas)):
            raise ValueError("lambdas must be finite")
        gram_err = np.abs(self.frame.T @ self.base.gram @ self.frame
                          - np.eye(n)).max()
        if gram_err > orthonormal_tol(self.base):
            raise ValueError(f"frame not orthonormal for base ({gram_err:.2e})")

    @property
    def n(self) -> int:
        return self.base.n


def _check_t(spec: DeformationSpec, t: float) -> None:
    if not np.isfinite(t):
        raise OverflowGuardError("t must be finite")
    if np.abs(spec.lambdas * t).max(initial=0.0) > OVERFLOW_LIMIT:
        raise OverflowGuardError(f"|lambda_i * t| exceeds {OVERFLOW_LIMIT}")


def deformed_metric(spec: DeformationSpec, t: float) -> Metric:
    """Gram matrix of g_t in the original basis: the direct reference
    for `deformed_ricci` in the tests and in the curvature-sweep
    benchmark check (perfbench/workloads.py)."""
    _check_t(spec, t)
    finv = np.linalg.inv(spec.frame)
    gram = finv.T @ np.diag(np.exp(spec.lambdas * t)) @ finv
    return Metric(0.5 * (gram + gram.T))


def deformed_frame(spec: DeformationSpec, t: float) -> np.ndarray:
    """Columns E_i = exp(-lambda_i t / 2) e_i, orthonormal for g_t."""
    _check_t(spec, t)
    return spec.frame @ np.diag(np.exp(-spec.lambdas * t / 2.0))


def deformed_ricci_frame(spec: DeformationSpec, algebra: NilpotentAlgebra,
                         t: float) -> np.ndarray:
    """Matrix of ric_t in the coordinates of the (undeformed) frame.

    ricci_frame of the base frame structure constants with the weights
    exp((lambda_k - lambda_i - lambda_j) t): the g_t-orthonormal frame
    E_i = exp(-lambda_i t / 2) e_i scales c_ijk by half that exponent, and
    the change of coordinates from E back to e supplies the other half.
    """
    _check_t(spec, t)
    lam = spec.lambdas
    c = frame_structure(algebra, spec.base, spec.frame)
    expo = lam[None, None, :] - lam[:, None, None] - lam[None, :, None]
    return ricci_frame(c, np.exp(expo * t))


def deformed_ricci(spec: DeformationSpec, algebra: NilpotentAlgebra,
                   t: float) -> RicciReport:
    """Ricci report of g_t, computed in the g_t-orthonormal frame.

    The frame structure constants of g_t are the base ones scaled by
    exp((lambda_k - lambda_i - lambda_j) t / 2); a common exponent shift
    keeps the eigenproblem finite even when the raw entries overflow.
    For moderate t this agrees with ricci_operator on deformed_metric.
    Eigenvectors are returned with unit Euclidean norm.
    """
    _check_t(spec, t)
    lam = spec.lambdas
    c = frame_structure(algebra, spec.base, spec.frame)
    expo = 0.5 * t * (lam[None, None, :] - lam[:, None, None]
                      - lam[None, :, None])
    # drop numerical-noise entries: their formal exponents would otherwise
    # dominate the shift and crush the genuine terms to zero
    cmax = np.abs(c).max()
    nz = np.abs(c) > 1e-12 * (cmax + 1.0)
    c = np.where(nz, c, 0.0)
    shift = float(expo[nz].max()) if nz.any() else 0.0
    ct = c * np.exp(expo - shift)
    with np.errstate(over="ignore"):
        scale = np.exp(2.0 * shift)
    report = RicciReport.from_frame_matrix(ricci_frame(ct),
                                           deformed_frame(spec, t), scale)
    norms = np.linalg.norm(report.eigenvectors, axis=0)
    norms[norms == 0.0] = 1.0
    report.eigenvectors = report.eigenvectors / norms
    return report


@dataclass
class ScaledRicciLimit:
    spec: DeformationSpec
    d: float
    Lambda: list[tuple[int, int, int]]      # (i, j, k), i > j, 0-based
    phi0: np.ndarray                        # frame coordinates
    gap: float                              # d minus second-largest exponent
    p: int | None = None
    q: int | None = None
    J: list[np.ndarray] = field(default_factory=list)
    A: np.ndarray | None = None

    @property
    def has_block_structure(self) -> bool:
        return self.p is not None

    def sum_J_squared(self) -> np.ndarray:
        return sum(j @ j for j in self.J)

    def phi0_eigenvalues(self) -> np.ndarray:
        """Sorted real parts of the eigenvalues of phi0, which is not
        symmetric."""
        return np.sort(np.linalg.eigvals(self.phi0).real)


def _lambda_triples(lam: np.ndarray) -> tuple[float, list, float]:
    """d, the maximizing set Lambda, and the gap to the runner-up.

    Ties are decided with the tolerance 1e-12 (max |lambda_i| + 1), since
    membership in Lambda changes the limit discontinuously. On integer
    exponents the float sums are exact, so ties are too.
    """
    n = len(lam)
    vals: dict[tuple[int, int, int], float] = {}
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


def _detect_pq(lam: np.ndarray) -> tuple[int, int] | None:
    """(p, q) if lambdas are (+1 x p, 0 x (n-p-q), -1 x q) in frame order."""
    n = len(lam)
    p = 0
    while p < n and abs(lam[p] - 1.0) < 1e-12:
        p += 1
    q = 0
    while q < n and abs(lam[n - 1 - q] + 1.0) < 1e-12:
        q += 1
    if p < 1 or q < 2 or p + q > n:
        return None
    if not np.all(np.abs(lam[p:n - q]) < 1e-12):
        return None
    return p, q


def scaled_ricci_limit(spec: DeformationSpec,
                       algebra: NilpotentAlgebra) -> ScaledRicciLimit:
    """Limit of 2 exp(-t d) ric_t as t -> infinity, in frame coordinates."""
    lam = spec.lambdas
    d, lam_set, gap = _lambda_triples(lam)
    c = frame_structure(algebra, spec.base, spec.frame)
    n = spec.n
    mask = np.zeros((n, n, n))
    for (i, j, k) in lam_set:
        mask[i, j, k] = mask[j, i, k] = 1.0
    phi0 = 2.0 * ricci_frame(c, mask)
    limit = ScaledRicciLimit(spec=spec, d=d, Lambda=lam_set, phi0=phi0,
                             gap=gap)
    pq = _detect_pq(lam)
    if pq is not None:
        p, q = pq
        limit.p, limit.q = p, q
        js = []
        for k in range(p):
            jk = np.array([[c[n - q + r, n - q + s, k] for s in range(q)]
                           for r in range(q)])
            js.append(jk)
        limit.J = js
        limit.A = np.array([[0.5 * np.trace(js[k] @ js[l].T)
                             for l in range(p)] for k in range(p)])
    return limit


@dataclass
class ExtremalCandidate:
    T: np.ndarray                 # basis coordinates
    lambda_extreme: float
    construction: str             # e1u2 | eumin | e2u3_T1 | e2u3_T2 |
                                  # two_step | generic_limit
    simple: bool
    kind: str = "max"             # max | min

    @property
    def is_zero(self) -> bool:
        return bool(np.linalg.norm(self.T) < 1e-12)


def extremal_T(limit: ScaledRicciLimit,
               algebra: NilpotentAlgebra) -> ExtremalCandidate:
    """Closed-form top eigenvector of the scaled Ricci limit.

    Requires the (p, q) block structure and a simple top eigenvalue of the
    Gram block A. If the first frame vector is not aligned with A's top
    eigenvector, the first p frame vectors are rotated onto A's eigenbasis
    (the J_k transform contravariantly under that rotation).
    """
    if not limit.has_block_structure:
        raise CandidateError("exponent pattern is not (+1 x p, 0, -1 x q)")
    p, q = limit.p, limit.q
    a = limit.A
    avals, avecs = np.linalg.eigh(a)
    lam_max = avals[-1]
    if lam_max <= 1e-12:
        raise CandidateError("A has no positive top eigenvalue "
                             "(J_k all zero or degenerate)")
    gap_tol = 1e-8 * (np.abs(avals).max() + 1.0)
    simple = p < 2 or (avals[-1] - avals[-2]) > gap_tol
    if not simple:
        return ExtremalCandidate(T=np.zeros(limit.spec.n),
                                 lambda_extreme=lam_max,
                                 construction="generic_limit", simple=False)
    n = limit.spec.n
    frame = limit.spec.frame
    js = limit.J
    e_plus = [frame[:, k] for k in range(p)]
    top = avecs[:, -1]
    if p > 1 and abs(abs(top[0]) - 1.0) > 1e-12:
        # realize assumption (II): rotate the first p frame vectors onto
        # the eigenbasis of A (the J_k transform the same way, keeping
        # J'_k attached to the rotated e'_k)
        order = np.argsort(avals)[::-1]
        o = avecs[:, order]
        js = [sum(o[l, k] * limit.J[l] for l in range(p)) for k in range(p)]
        e_plus = [frame[:, :p] @ o[:, k] for k in range(p)]
    sum_j2 = sum(j @ j for j in js)
    # Y = sum_{r,s} (J_1)_{rs} [e_{n-q+r}, e_{n-q+s}]
    y = np.zeros(n)
    low = [frame[:, n - q + r] for r in range(q)]
    pair_brackets = [[algebra.bracket_float(low[r], low[s]) for s in range(q)]
                     for r in range(q)]
    for r in range(q):
        for s in range(q):
            y += js[0][r, s] * pair_brackets[r][s]
    # xi_r = sum_s sum_k (J_k)_{rs} <e_k, [e_{n-q+s}, Y]>
    g = limit.spec.base.gram
    xi = np.zeros(q)
    for r in range(q):
        acc = 0.0
        for s in range(q):
            bsy = algebra.bracket_float(low[s], y)
            for k in range(p):
                acc += js[k][r, s] * float(e_plus[k] @ g @ bsy)
        xi[r] = acc
    resolvent = lam_max * np.eye(q) - sum_j2
    eta = np.linalg.solve(resolvent, xi)
    t_vec = y + sum(eta[r] * low[r] for r in range(q))
    cand = ExtremalCandidate(T=t_vec, lambda_extreme=lam_max,
                             construction="generic_limit", simple=True)
    if not cand.is_zero:
        # eigen-equation check in frame coordinates
        tf = np.linalg.solve(frame, t_vec)
        resid = np.abs(limit.phi0 @ tf - lam_max * tf).max()
        if resid > 1e-6 * (np.abs(tf).max() + 1.0):
            raise CandidateError(f"limit eigen-equation failed ({resid:.2e})")
    return cand


def _require_orthonormal(metric: Metric, vectors: list[np.ndarray],
                         names: list[str]) -> None:
    v = np.column_stack(vectors)
    bad = np.abs(v.T @ metric.gram @ v - np.eye(len(names))) \
        > orthonormal_tol(metric)
    for i, nm in enumerate(names):
        if bad[i, i]:
            raise CandidateError(f"{nm} is not a unit vector")
        for j in range(i):
            if bad[i, j]:
                raise CandidateError(f"{names[j]} and {nm} are not orthogonal")


def candidate_e1u2(algebra: NilpotentAlgebra, metric: Metric,
                   e, u1, u2) -> ExtremalCandidate:
    """T = 2<u12,e> u12 + <u212,e> u1 - <u112,e> u2 for orthonormal e,u1,u2."""
    e = np.asarray(e, float)
    u1 = np.asarray(u1, float)
    u2 = np.asarray(u2, float)
    _require_orthonormal(metric, [e, u1, u2], ["e", "u1", "u2"])
    u12 = algebra.bracket_float(u1, u2)
    u112 = algebra.bracket_float(u1, u12)
    u212 = algebra.bracket_float(u2, u12)
    t = (2.0 * metric.inner(u12, e) * u12
         + metric.inner(u212, e) * u1
         - metric.inner(u112, e) * u2)
    a = metric.inner(e, u12)
    return ExtremalCandidate(T=t, lambda_extreme=a * a,
                             construction="e1u2", simple=bool(abs(a) > 1e-12))


def lemma5a_deformation(algebra: NilpotentAlgebra, metric: Metric,
                        e, u1, u2
                        ) -> tuple[DeformationSpec, ExtremalCandidate]:
    """Deformation realizing the candidate of candidate_e1u2 as the maximal
    Ricci eigendirection in the limit.

    When <e, [u1, u2]> != 0 the exponent pattern (+1 on e, -1 on u1, u2)
    works directly. When it vanishes, the maximal direction is reached by
    continuity: e is tilted by LEMMA5A_TILT toward the component of
    [u1, u2] orthogonal to span(e, u1, u2), which makes the top limit
    eigenvalue simple while moving the limiting direction only
    O(LEMMA5A_TILT) away from T.
    The returned candidate always carries the unperturbed T.
    """
    e = np.asarray(e, float)
    u1 = np.asarray(u1, float)
    u2 = np.asarray(u2, float)
    cand = candidate_e1u2(algebra, metric, e, u1, u2)
    if cand.is_zero:
        raise CandidateError("candidate vector T is zero")
    if cand.simple:
        spec = spec_for_pattern(algebra, metric, [e], [u1, u2])
        return spec, cand
    u12 = algebra.bracket_float(u1, u2)
    if metric.norm2(u12) < 1e-20:
        raise CandidateError("[u1, u2] = 0: no deformation available")
    w = u12.copy()
    for v in (e, u1, u2):
        w = w - metric.inner(w, v) * v
    nw = np.sqrt(max(metric.norm2(w), 0.0))
    if nw < 1e-12:
        raise CandidateError("[u1, u2] lies in span(e, u1, u2)")
    w = w / nw
    e_tilt = e + LEMMA5A_TILT * w
    e_tilt = e_tilt / np.sqrt(metric.norm2(e_tilt))
    tilted = candidate_e1u2(algebra, metric, e_tilt, u1, u2)
    if not tilted.simple:
        raise CandidateError("tilt failed to make <e,[u1,u2]> nonzero")
    spec = spec_for_pattern(algebra, metric, [e_tilt], [u1, u2])
    return spec, ExtremalCandidate(T=cand.T, lambda_extreme=tilted.lambda_extreme,
                                   construction="e1u2", simple=True)


def _eu_inner_products(algebra, metric, e1, e2, u1, u2, u3):
    u12 = algebra.bracket_float(u1, u2)
    u13 = algebra.bracket_float(u1, u3)
    u23 = algebra.bracket_float(u2, u3)
    vals = {
        "<e1,u13>": metric.inner(e1, u13),
        "<e1,u23>": metric.inner(e1, u23),
        "<e2,u12>": metric.inner(e2, u12),
        "<e2,u23>": metric.inner(e2, u23),
    }
    a = metric.inner(e1, u12)
    b = metric.inner(e2, u13)
    return u12, vals, a, b


def _check_eu_preconditions(algebra, metric, e1, e2, u1, u2, u3):
    vecs = [np.asarray(v, float) for v in (e1, e2, u1, u2, u3)]
    _require_orthonormal(metric, vecs, ["e1", "e2", "u1", "u2", "u3"])
    e1, e2, u1, u2, u3 = vecs
    u12, vals, a, b = _eu_inner_products(algebra, metric, e1, e2, u1, u2, u3)
    for name, v in vals.items():
        if abs(v) > EU_PRECONDITION_TOL:
            raise CandidateError(f"precondition {name} = 0 violated "
                                 f"(got {v:.3e})")
    if abs(a) <= EU_PRECONDITION_TOL:
        raise CandidateError("precondition <e1,u12> != 0 violated")
    if abs(b) <= EU_PRECONDITION_TOL:
        raise CandidateError("precondition <e2,u13> != 0 violated")
    return e1, e2, u1, u2, u3, u12, a, b


def candidate_T1_T2(algebra: NilpotentAlgebra, metric: Metric,
                    e1, e2, u1, u2, u3
                    ) -> tuple[ExtremalCandidate, ExtremalCandidate]:
    """The two Ricci-maximal candidates of the p=2, q=3 construction.

    Requires |a| > |b| on top of the orthogonality preconditions.
    """
    e1, e2, u1, u2, u3, u12, a, b = _check_eu_preconditions(
        algebra, metric, e1, e2, u1, u2, u3)
    if abs(a) <= abs(b):
        raise CandidateError(f"requires |a| > |b|, got |a|={abs(a):.3e}, "
                             f"|b|={abs(b):.3e}")
    u112 = algebra.bracket_float(u1, u12)
    u212 = algebra.bracket_float(u2, u12)
    u312 = algebra.bracket_float(u3, u12)
    p1 = metric.inner(e1, u212)
    p2 = metric.inner(e2, u312)
    p3 = metric.inner(e1, u112)
    p4 = metric.inner(e2, u112)
    t1 = (2.0 * (b * p1 + a * p2) * u1 - 3.0 * b * p3 * u2
          - 3.0 * a * p4 * u3 + 6.0 * a * b * u12)
    t2 = ((a * p1 + b * p2) / (2 * a * a + b * b) * u1
          - p3 / (2 * a) * u2
          - b * p4 / (a * a + b * b) * u3 + u12)
    c1 = ExtremalCandidate(T=t1, lambda_extreme=a * a,
                           construction="e2u3_T1", simple=True)
    c2 = ExtremalCandidate(T=t2, lambda_extreme=a * a,
                           construction="e2u3_T2", simple=True)
    return c1, c2


def complement_frame(metric: Metric, vectors) -> np.ndarray:
    """g-orthonormal basis (columns) of the g-orthogonal complement of
    span(vectors): the null space of V^T G from its SVD, made
    g-orthonormal through the Cholesky factor of its Gram matrix."""
    w = np.asarray(vectors, float).reshape(-1, metric.n)
    _, s, vt = np.linalg.svd(w @ metric.gram)
    rank = int(np.sum(s > 1e-12 * max(s.max(initial=0.0), 1.0)))
    b = vt[rank:].T
    return b @ np.linalg.inv(np.linalg.cholesky(b.T @ metric.gram @ b)).T


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
    u = complement_frame(metric, np.array(gp.basis, float))
    q = u.shape[1]
    t = np.zeros(algebra.n)
    lam = 0.0
    for i in range(q):
        for j in range(q):
            uij = algebra.bracket_float(u[:, i], u[:, j])
            coef = metric.inner(e, uij)
            t += coef * uij
            lam += coef * coef
    cand = ExtremalCandidate(T=t, lambda_extreme=0.5 * lam,
                             construction="two_step", simple=True)
    return spec_for_pattern(algebra, metric, [e], list(u.T)), cand


def spec_for_pattern(algebra: NilpotentAlgebra, metric: Metric,
                     plus: list[np.ndarray],
                     minus: list[np.ndarray]) -> DeformationSpec:
    """DeformationSpec with exponents +1 on `plus`, -1 on `minus` and 0 on
    their complement frame; the given vectors must be g-orthonormal. The
    middle block has one exponent, so g_t does not depend on the basis
    chosen inside it."""
    n = algebra.n
    p, q = len(plus), len(minus)
    chosen = [np.asarray(v, float) for v in plus + minus]
    _require_orthonormal(metric, chosen,
                         [f"v{i}" for i in range(len(chosen))])
    middle = complement_frame(metric, chosen)
    frame = np.column_stack(chosen[:p] + [middle] + chosen[p:])
    lam = np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])
    return DeformationSpec(base=metric, lambdas=lam, frame=frame)


def projective_distance(u, v) -> float:
    """Sine of the principal angle between the lines R u and R v: the norm
    of the rejection of u^ from v^, which unlike sqrt(1 - cos^2) keeps
    its relative precision for nearly parallel lines."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("projective distance undefined for the zero vector")
    u, v = u / nu, v / nv
    return float(min(1.0, np.linalg.norm(u - np.dot(u, v) * v)))


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
    those pairs are evaluated with projective_distance. The bound holds
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
    row_mins = []
    for i in np.flatnonzero(mins >= mins.max() - window):
        near = np.flatnonzero(screen(gn[i:i + 1])[0] <= mins[i] + window)
        row_mins.append(min(projective_distance(g[i], c[j]) for j in near))
    return max(row_mins)


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
    return coords @ np.array(subspace.basis, float)


# singular values at or below this count as zero in complete_basis
BASIS_RANK_TOL = 1e-9


def complete_basis(vectors) -> list[np.ndarray]:
    """Standard basis vectors that complete independent `vectors` to a
    basis: e_0, ..., e_{n-1} in order, each kept when it raises the
    numerical rank (singular values above BASIS_RANK_TOL).

    The scan stops once it holds n vectors: n columns of length n have
    rank at most n, so no later e_i could be kept. Dependent `vectors`
    keep the rank below the column count, so no e_i is ever kept and the
    result is [] either way."""
    have = [np.asarray(v, float) for v in vectors]
    n = len(have[0])
    out: list[np.ndarray] = []
    for e in np.eye(n):
        if len(have) + len(out) == n:
            break
        if np.linalg.matrix_rank(np.column_stack(have + out + [e]),
                                 tol=BASIS_RANK_TOL) > len(have) + len(out):
            out.append(e)
    return out


def codim1_adapted_metric(algebra: NilpotentAlgebra, c, u1
                          ) -> tuple[Metric, np.ndarray]:
    """(metric, e): the metric in which c, u1, [c, u1] and their
    completion by standard vectors (`complete_basis`) are orthonormal,
    with e the first completion vector."""
    have = [np.asarray(c, float), np.asarray(u1, float),
            algebra.bracket_float(c, u1)]
    comp = complete_basis(have)
    if len(have) + len(comp) != algebra.n:
        raise CandidateError("frame completion failed")
    return Metric.orthonormalizing(np.column_stack(have + comp)), comp[0]


def lemma5_candidates(algebra: NilpotentAlgebra, seed: int, samples: int
                      ) -> tuple[list[tuple[ExtremalCandidate,
                                            DeformationSpec]], list[str]]:
    """(pairs, notes): up to `samples` (candidate, deformation) pairs of
    the Lemma 5 construction that fits the structure, drawn from a
    generator seeded with `seed`, and notes on the samples skipped.

    Two-step: a random metric and unit e in g' (`two_step_deformation`).
    With a codimension-one abelian ideal a and complement c: a random
    unit u1 in a with [c, [c, u1]] != 0, in the metric of
    `codim1_adapted_metric` (`lemma5a_deformation`). Otherwise no pairs,
    and a note that there is no closed form."""
    rng = np.random.default_rng(seed)
    notes = []
    out = []
    if algebra.is_two_step():
        gp = np.array(algebra.derived_algebra().basis, float)
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
    a_basis = np.array(ideal.basis, float)
    c_vec = np.array(ideal.complement()[0], float)
    for k in range(samples):
        u1 = rng.uniform(-1.0, 1.0, size=a_basis.shape[0]) @ a_basis
        u1 = u1 / np.linalg.norm(u1)
        if np.linalg.norm(algebra.bracket_float(
                c_vec, algebra.bracket_float(c_vec, u1))) < 1e-8:
            continue
        try:
            metric, e = codim1_adapted_metric(algebra, c_vec, u1)
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
                      candidate: ExtremalCandidate,
                      target: float = 1e-4) -> ConvergenceTrace:
    """Projective distance between the candidate line and the extremal
    eigendirection of ric_t along T_GRID.

    `converged` uses the best distance over the grid: once the eigenvector
    components across exponent blocks differ by more than the float
    precision (roughly exp(-spread * t) < machine epsilon), the recovered
    direction degrades again, which is not divergence.
    """
    if not candidate.simple:
        raise CandidateError("candidate eigenvalue is not certified simple")
    if candidate.is_zero:
        raise CandidateError("candidate vector is zero")
    rows = []
    for t in T_GRID:
        try:
            report = deformed_ricci(spec, algebra, t)
        except OverflowGuardError:
            break
        if candidate.kind == "max":
            vec, lam = report.max_eigenvector, report.eigenvalues[-1]
        else:
            vec, lam = report.min_eigenvector, report.eigenvalues[0]
        rows.append((float(t), float(lam),
                     projective_distance(vec, candidate.T)))
    converged = bool(rows) and min(r[2] for r in rows) < target
    return ConvergenceTrace(rows=rows, converged=converged)
