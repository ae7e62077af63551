"""Curvature of a left-invariant metric: sectional curvature, the Ricci
form, the Ricci operator and its spectrum.

All numerics are float; rational cross-checks and the term-by-term
U-operator reference live in the test suite. The
orthonormal frame of a metric is fixed deterministically as the inverse
transpose of the lower Cholesky factor of the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import NilpotentAlgebra

EIG_CLUSTER_REL = 1e-8


class MetricError(ValueError):
    """Gram matrix not symmetric positive definite."""


class DegeneratePlaneError(ValueError):
    """Normalized sectional curvature requested for a degenerate plane."""


class Metric:
    """Inner product on the algebra: an SPD Gram matrix on the basis, or a
    (..., n, n) stack of them, validated and factored in one pass, whose
    row `metric[i]` shares the stack's factor."""

    def __init__(self, gram: np.ndarray):
        g = np.asarray(gram, dtype=float)
        if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
            raise MetricError("gram must be square")
        gt = g.mT
        # an exactly symmetric gram, the usual case, passes the tolerance
        # test too, so skip it; an empty one still reaches it (and fails)
        symmetric = bool(g.size and (g == gt).all()) or np.isclose(
            g, gt, atol=1e-12 * (1 + np.abs(g).max(axis=(-2, -1),
                                                    keepdims=True))
        ).all(axis=(-2, -1))
        gram = 0.5 * (g + gt)
        chol, definite = _cholesky(gram)
        if symmetric is not True or chol is None:
            # the checks of a row in the order a single gram meets them
            raise_first_failure(MetricError, [
                (~np.asarray(symmetric), "gram must be symmetric"),
                (~definite, "gram must be positive definite")])
        # columns are an orthonormal frame: F^T G F = I, so G^-1 = F F^T
        self.gram, self.frame = gram, np.linalg.inv(chol).mT
        self._inv = self.frame @ self.frame.mT

    def __getitem__(self, i) -> "Metric":
        if self.gram.ndim == 2:
            raise TypeError("a single Metric has no rows")
        row = Metric.__new__(Metric)
        vars(row).update((k, v[i]) for k, v in vars(self).items())
        return row

    def __len__(self) -> int:
        return len(self[:].gram)    # a single metric raises TypeError

    @property
    def n(self) -> int:
        return self.gram.shape[-1]

    @classmethod
    def identity(cls, n: int) -> "Metric":
        return cls(np.eye(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Metric":
        """Metric.from_factor of a B with entries uniform on [-1, 1]."""
        return cls.from_factor(rng.uniform(-1.0, 1.0, size=(n, n)))

    @classmethod
    def from_factor(cls, b) -> "Metric":
        """Gram = B^T B + 1e-6 I of a square B, or of each B of a
        (..., n, n) stack: positive definite even where B is singular.
        Each row equals the single metric of its B to the bit."""
        b = np.asarray(b, dtype=float)
        return cls(b.mT @ b + 1e-6 * np.eye(b.shape[-1]))

    @classmethod
    def orthonormalizing(cls, bases) -> "Metric":
        """The metric G = (B B^T)^-1, so B^T G B = I, of a square basis B
        or of each basis of a (..., n, n) stack, symmetrized before it is
        validated: on a well-conditioned basis whose columns differ much
        in length, the rounding of the inverse can exceed the symmetry
        bound of Metric. Failing rows raise MetricError with the message
        of one of them (the inverse, Cholesky or the dependence bound)."""
        b = np.asarray(bases, dtype=float)
        if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
            raise MetricError("basis must be square")
        n = b.shape[-1]
        dependent = "basis vectors are linearly dependent"
        try:
            s = np.linalg.inv(b @ b.mT)
        except np.linalg.LinAlgError:
            raise MetricError(dependent)
        metric = cls(0.5 * (s + s.mT))
        # entries of B^T G B - I below 1/n bound its norm below 1, so
        # B^T G B, and with it B, is invertible (a NaN entry fails the test)
        near = np.abs(b.mT @ metric.gram @ b - np.eye(n)).max(
            axis=(-2, -1)) < 1 / n
        raise_first_failure(MetricError, [(~near, dependent)])
        return metric

    def inner(self, x, y) -> float:
        return float(np.asarray(x, float) @ self.gram @ np.asarray(y, float))

    def norm2(self, x) -> float:
        return self.inner(x, x)


def _cholesky(gram: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(lower Cholesky factors, True) of a (..., n, n) stack of symmetric
    matrices, or (None, mask of the rows that have one) if some has none."""
    try:
        return np.linalg.cholesky(gram), np.True_
    except np.linalg.LinAlgError:
        # a single matrix is its one failing row; a stack tries each row
        rows = gram.reshape(-1, *gram.shape[-2:])
        return None, np.reshape([gram.ndim > 2 and _cholesky(m)[1]
                                 for m in rows], gram.shape[:-2])


def raise_first_failure(error: type, checks) -> None:
    """Raise error for the first row failing one of checks (bad mask over
    the rows, message, *values to format it with), with the message of
    the first check it fails."""
    if not any(np.asarray(c[0]).any() for c in checks):
        return
    bad = np.reshape(np.broadcast_arrays(*(c[0] for c in checks)),
                     (len(checks), -1))
    row = int(np.argmax(bad.any(axis=0)))
    _, message, *values = checks[int(np.argmax(bad[:, row]))]
    raise error(message.format(*(np.ravel(v)[row] for v in values)))


def one_or_rows(results: list, stacked: bool):
    """Rows' results if stacked; else the one result, raised if an error."""
    if stacked:
        return results
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def frame_structure(algebra: NilpotentAlgebra, metric: Metric,
                    frame: np.ndarray | None = None) -> np.ndarray:
    """c[i,j,k] = <F_k, [F_i, F_j]> for an orthonormal frame F (columns),
    as a (..., n, n, n) stack for a stacked metric or frame; each row is
    its single call to the bit. The result is C-ordered, as a single
    call's always is, since the einsums of ricci_frame sum in an order
    set by the memory layout."""
    f = metric.frame if frame is None else np.asarray(frame, float)
    c0 = algebra.structure_tensor()
    # brackets of frame vectors, in basis coordinates
    b = np.einsum("...ia,...jb,ijk->...abk", f, f, c0)
    return np.ascontiguousarray(
        np.einsum("...abk,...kl,...lc->...abc", b, metric.gram, f))


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
    the N curvatures of the planes (x[r], y[r]). A stacked metric, Gram
    matrices of shape (..., n, n), gives shape (...) for one plane and
    (..., N) for N planes, each row its single-metric call to the bit.
    With the ad-images A_v = (rows [v, e_m]) every term is a batched
    matmul: <U(v, w), e_m> = -(1/2)(A_w G v + A_v G w)_m, [x, y] = y A_x,
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
    batch = g.shape[:-2]
    out = np.empty(batch + (len(xs),))
    # the metric rows share each block of planes, which shrinks with them
    # so the temporaries stay about _CHUNK planes. A block of one plane
    # takes numpy's vector-matrix product, which rounds unlike the matrix
    # one, so a lone last plane joins the block before it
    chunk = max(2, _CHUNK // math.prod(batch))
    stops = [*range(chunk, len(xs) - 1, chunk), len(xs)]
    for s, stop in zip([0, *stops], stops):
        x, y = xs[s:stop], ys[s:stop]
        ax, ay = ad_images(c, x), ad_images(c, y)
        gxy = np.stack([x @ g, y @ g], axis=-1)
        px, py = ax @ gxy, ay @ gxy        # [..., 0]: A G x, [..., 1]: A G y
        fxy = -0.5 * (py[..., 0] + px[..., 1])
        fxx, fyy = -px[..., 0], -py[..., 1]
        bxy = np.matmul(y[:, None, :], ax)[:, 0, :]
        out[..., s:stop] = (
            np.sum(fxy @ ginv * fxy, axis=-1)
            - np.sum(fxx @ ginv * fyy, axis=-1)
            - 0.75 * np.sum(bxy @ g * bxy, axis=-1)
            - 0.5 * np.sum(bxy * px[..., 1], axis=-1)
            + 0.5 * np.sum(bxy * py[..., 0], axis=-1))
    if not single:
        return out
    return float(out[0]) if not batch else out[..., 0]


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
    algebra) and weights w symmetric in (i, j), all 1 by default, read at
    i > j only. With w = exp(x t) for `deformation.exponent_tensor` x it
    is the Ricci operator of the deformed metric g_t in the coordinates of
    the undeformed frame; with a 0/1 mask it keeps the leading terms of
    that expansion. A (..., n, n, n) stack of tensors, with weights of
    shape (n, n, n) or of the stack's, gives the (..., n, n) stack of
    forms.

    Both sums run over the pairs i > j of c_ijk = -c_jik only: the first
    is twice its half, the second splits into its terms with i > a and
    with i < a (c_aak = 0). This order of summation sets the rounding of
    the limit operators, whose eigenvalues check_deformation_limit
    compares to 1e-9 absolute. The batch axes `...` leave it as it is:
    each row of a stack is its single call to the bit (a test pins it).
    """
    wc = (c if weights is None else weights * c) \
        * np.tri(c.shape[-1], k=-1)[:, :, None]      # pairs i > j
    return 0.5 * (np.einsum("...ija,...ijb->...ab", c, wc)
                  - np.einsum("...iak,...ibk->...ab", wc, c)
                  + np.einsum("...aik,...ibk->...ab", wc, c))


def ricci_form_matrix(algebra: NilpotentAlgebra, metric: Metric) -> np.ndarray:
    """Matrix R with Ric(X, Y) = X^T R Y in the original basis, one per
    row of a stacked metric."""
    finv = np.linalg.inv(metric.frame)
    return finv.mT @ ricci_frame(frame_structure(algebra, metric)) @ finv


@dataclass
class RicciReport:
    eigenvalues: np.ndarray       # ascending; [..., -1] the maximal one
    eigenvectors: np.ndarray      # columns, basis coordinates, g-orthonormal
    min_simple: bool
    max_simple: bool
    frame: np.ndarray             # orthonormal frame (columns)
    form: np.ndarray              # ric in frame coordinates (NaN: overflow)

    @property
    def operator(self) -> np.ndarray:
        """Matrix of ric in the original basis, made when it is read."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.frame @ self.form @ np.linalg.inv(self.frame)

    @classmethod
    def from_frame_matrix(cls, r_frame: np.ndarray, frame: np.ndarray,
                          scale: float = 1.0) -> "RicciReport":
        """Report of the operator scale * r_frame, given in the coordinates
        of the orthonormal frame (columns). Simplicity of the extreme
        eigenvalues is decided on r_frame, relative to EIG_CLUSTER_REL.
        Stacks (..., n, n) and scales (...) give a report of stacks."""
        r_frame = 0.5 * (r_frame + r_frame.mT)
        vals, vecs_frame = np.linalg.eigh(r_frame)
        gap_tol = EIG_CLUSTER_REL * (np.abs(vals).max(axis=-1) + 1.0)
        n = vals.shape[-1]
        min_simple = n < 2 or (vals[..., 1] - vals[..., 0]) > gap_tol
        max_simple = n < 2 or (vals[..., -1] - vals[..., -2]) > gap_tol
        scale = np.asarray(scale, float)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            form, vals = r_frame * scale[..., None], vals * scale
        if np.isinf(scale).any():
            # inf scale: no operator; a 0 eigenvalue (NaN product) stays 0
            form[np.isinf(scale[..., 0])] = np.nan
            vals[np.isnan(vals)] = 0.0
        return cls(eigenvalues=vals, eigenvectors=frame @ vecs_frame,
                   min_simple=min_simple, max_simple=max_simple,
                   frame=frame, form=form)


def ricci_operator(algebra: NilpotentAlgebra, metric: Metric) -> RicciReport:
    """Ricci operator ric with <ric X, Y> = Ric(X, Y), plus its spectrum."""
    return RicciReport.from_frame_matrix(
        ricci_frame(frame_structure(algebra, metric)), metric.frame)
