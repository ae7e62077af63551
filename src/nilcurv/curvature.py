"""Curvature of a left-invariant metric: sectional curvature, the Ricci
form, the Ricci operator and its spectrum.

All numerics are float; rational cross-checks and the term-by-term
U-operator reference live in the test suite. The
orthonormal frame of a metric is fixed deterministically as the inverse
transpose of the lower Cholesky factor of the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NilpotentAlgebra

EIG_CLUSTER_REL = 1e-8


class MetricError(ValueError):
    """Gram matrix not symmetric positive definite."""


class DegeneratePlaneError(ValueError):
    """Normalized sectional curvature requested for a degenerate plane."""


class Metric:
    """Inner product on the algebra, as an SPD Gram matrix on the basis."""

    def __init__(self, gram: np.ndarray):
        g = np.asarray(gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise MetricError("gram must be square")
        # an exactly symmetric gram, the usual case, passes the tolerance
        # test too, so skip it; an empty one still reaches it (and fails)
        if not (g.size and (g == g.T).all()) and not np.allclose(
                g, g.T, atol=1e-12 * (1 + np.abs(g).max())):
            raise MetricError("gram must be symmetric")
        self.gram = 0.5 * (g + g.T)
        try:
            self._chol = np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            raise MetricError("gram must be positive definite")
        # columns are an orthonormal frame: F^T G F = I, so G^-1 = F F^T
        self.frame = np.linalg.inv(self._chol).T
        self._inv = self.frame @ self.frame.T

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Metric":
        return cls(np.eye(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Metric":
        """Gram = B^T B + 1e-6 I with B entries uniform on [-1, 1]."""
        b = rng.uniform(-1.0, 1.0, size=(n, n))
        return cls(b.T @ b + 1e-6 * np.eye(n))

    @classmethod
    def orthonormalizing(cls, basis) -> "Metric":
        """The metric in which the columns of the square `basis` are
        orthonormal: G = (B B^T)^-1, so that B^T G B = I. The computed
        inverse is symmetrized: on a well-conditioned basis whose columns
        differ much in length, its rounding can exceed the symmetry bound
        of Metric."""
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise MetricError("basis must be square")
        try:
            s = np.linalg.inv(b @ b.T)
        except np.linalg.LinAlgError:
            raise MetricError("basis vectors are linearly dependent")
        metric = cls(0.5 * (s + s.T))
        # entries of B^T G B - I below 1/n bound its norm below 1, so
        # B^T G B, and with it B, is invertible
        if np.abs(b.T @ metric.gram @ b - np.eye(len(b))).max() >= 1 / len(b):
            raise MetricError("basis vectors are linearly dependent")
        return metric

    def inner(self, x, y) -> float:
        return float(np.asarray(x, float) @ self.gram @ np.asarray(y, float))

    def norm2(self, x) -> float:
        return self.inner(x, x)


def frame_structure(algebra: NilpotentAlgebra, metric: Metric,
                    frame: np.ndarray | None = None) -> np.ndarray:
    """c[i,j,k] = <F_k, [F_i, F_j]> for an orthonormal frame F (columns)."""
    f = metric.frame if frame is None else np.asarray(frame, float)
    c0 = algebra.structure_tensor()
    # brackets of frame vectors, in basis coordinates
    b = np.einsum("ia,jb,ijk->abk", f, f, c0)
    return np.einsum("abk,kl,lc->abc", b, metric.gram, f)


# planes per block in the batched sectional curvature; bounds its
# temporary arrays
_CHUNK = 4096


def ad_images(c: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """[v, e_m]_k for every row v of vs, as an array indexed [row, m, k]."""
    n = c.shape[0]
    return (vs @ c.reshape(n, n * n)).reshape(len(vs), n, n)


def sectional_K(algebra: NilpotentAlgebra, metric: Metric, x, y
                ) -> float | np.ndarray:
    """Unnormalized sectional curvature K(x, y).

    K = |U(x,y)|^2 - <U(x,x), U(y,y)> - (3/4)|[x,y]|^2
        - (1/2)<[x,[x,y]], y> - (1/2)<[y,[y,x]], x>.
    Vectors x, y of shape (n,) give a float; arrays of shape (N, n) give
    the N curvatures of the planes (x[r], y[r]). With the ad-images
    A_v = (rows [v, e_m]) every term is a batched matmul:
    <U(v, w), e_m> = -(1/2)(A_w G v + A_v G w)_m, [x, y] = y A_x,
    <[x, [x, y]], y> = [x, y] . A_x G y and <[y, [y, x]], x> =
    -[x, y] . A_y G x.
    """
    xs = np.asarray(x, float)
    ys = np.asarray(y, float)
    single = xs.ndim == 1
    xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
    if xs.shape != ys.shape or xs.shape[1] != algebra.n:
        raise ValueError("vector length must equal algebra dimension")
    c = algebra.structure_tensor()
    g, ginv = metric.gram, metric._inv
    out = np.empty(len(xs))
    for s in range(0, len(xs), _CHUNK):
        x, y = xs[s:s + _CHUNK], ys[s:s + _CHUNK]
        ax, ay = ad_images(c, x), ad_images(c, y)
        gxy = np.stack([x @ g, y @ g], axis=2)
        px, py = ax @ gxy, ay @ gxy        # [..., 0]: A G x, [..., 1]: A G y
        fxy = -0.5 * (py[..., 0] + px[..., 1])
        fxx, fyy = -px[..., 0], -py[..., 1]
        bxy = np.matmul(y[:, None, :], ax)[:, 0, :]
        out[s:s + len(x)] = (
            np.sum(fxy @ ginv * fxy, axis=1)
            - np.sum(fxx @ ginv * fyy, axis=1)
            - 0.75 * np.sum(bxy @ g * bxy, axis=1)
            - 0.5 * np.sum(bxy * px[..., 1], axis=1)
            + 0.5 * np.sum(bxy * py[..., 0], axis=1))
    return float(out[0]) if single else out


def sectional_kappa(algebra: NilpotentAlgebra, metric: Metric, x, y) -> float:
    """Normalized sectional curvature K / |x ^ y|^2."""
    area2 = metric.norm2(x) * metric.norm2(y) - metric.inner(x, y) ** 2
    scale = metric.norm2(x) * metric.norm2(y)
    if area2 <= 1e-14 * (scale + 1.0):
        raise DegeneratePlaneError("x and y are linearly dependent")
    return sectional_K(algebra, metric, x, y) / area2


def ricci_frame(c: np.ndarray, weights: np.ndarray | None = None
                ) -> np.ndarray:
    """The Ricci form in an orthonormal frame, from its structure tensor.

    R[a,b] = (1/4) sum_ij w_ijb c_ija c_ijb - (1/2) sum_ik w_aik c_aik c_bik
    with c[i,j,k] = <e_k, [e_i, e_j]> (Milnor's formula for a nilpotent
    algebra) and weights w symmetric in (i, j), all 1 by default. With
    w_ijk = exp((l_k - l_i - l_j) t) it is the Ricci operator of the
    deformed metric g_t in the coordinates of the undeformed frame; with
    a 0/1 mask it keeps the leading terms of that expansion.

    Both sums run over the pairs i > j of c_ijk = -c_jik only: the first
    is twice its half, the second splits into its terms with i > a and
    with i < a (c_aak = 0). This order of summation sets the rounding of
    the limit operators, whose eigenvalues check_deformation_limit
    compares to 1e-9 absolute.
    """
    wc = (c if weights is None else weights * c) \
        * np.tri(c.shape[0], k=-1)[:, :, None]       # pairs i > j
    return 0.5 * (np.einsum("ija,ijb->ab", c, wc)
                  - np.einsum("iak,ibk->ab", wc, c)
                  + np.einsum("aik,ibk->ab", wc, c))


def ricci_form_matrix(algebra: NilpotentAlgebra, metric: Metric) -> np.ndarray:
    """Matrix R with Ric(X, Y) = X^T R Y in the original basis."""
    finv = np.linalg.inv(metric.frame)
    return finv.T @ ricci_frame(frame_structure(algebra, metric)) @ finv


@dataclass
class RicciReport:
    operator: np.ndarray          # matrix of ric in the original basis
    eigenvalues: np.ndarray       # ascending
    eigenvectors: np.ndarray      # columns, basis coordinates, g-orthonormal
    min_simple: bool
    max_simple: bool

    @property
    def max_eigenvector(self) -> np.ndarray:
        return self.eigenvectors[:, -1]

    @property
    def min_eigenvector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    @classmethod
    def from_frame_matrix(cls, r_frame: np.ndarray, frame: np.ndarray,
                          scale: float = 1.0) -> "RicciReport":
        """Report of the operator scale * r_frame, given in the coordinates
        of the orthonormal frame (columns). Simplicity of the extreme
        eigenvalues is decided on r_frame, relative to EIG_CLUSTER_REL."""
        r_frame = 0.5 * (r_frame + r_frame.T)
        vals, vecs_frame = np.linalg.eigh(r_frame)
        gap_tol = EIG_CLUSTER_REL * (np.abs(vals).max() + 1.0)
        n = len(vals)
        min_simple = n < 2 or (vals[1] - vals[0]) > gap_tol
        max_simple = n < 2 or (vals[-1] - vals[-2]) > gap_tol
        if np.isfinite(scale):
            with np.errstate(over="ignore"):
                op = frame @ (r_frame * scale) @ np.linalg.inv(frame)
                vals = vals * scale
        else:
            # scale overflowed to inf: an exact-zero eigenvalue stays 0
            op = np.full((n, n), np.nan)
            vals = np.where(vals == 0, 0.0, np.copysign(np.inf, vals))
        return cls(operator=op, eigenvalues=vals,
                   eigenvectors=frame @ vecs_frame,
                   min_simple=min_simple, max_simple=max_simple)


def ricci_operator(algebra: NilpotentAlgebra, metric: Metric) -> RicciReport:
    """Ricci operator ric with <ric X, Y> = Ric(X, Y), plus its spectrum."""
    return RicciReport.from_frame_matrix(
        ricci_frame(frame_structure(algebra, metric)), metric.frame)
