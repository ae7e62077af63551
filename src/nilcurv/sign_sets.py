"""Metric-independent curvature-sign sets and explicit sign witnesses.

Vector classification: the Ricci sign of X is metric-independent exactly
when X is central (nonnegative) resp. central and in the derived algebra
(positive). Plane classification: the sectional sign of a two-plane is
metric-independently nonnegative iff the plane is abelian and satisfies
the bracket-pencil condition; that set also equals G1 (planes meeting the
center) union G2 (planes inside a three-dimensional abelian ideal whose
bracket with the algebra is a line).

One exact kernel, plane_labels, labels planes in bulk: abelian, G1,
G_geq, and G2 for the planes that miss the center, where it holds iff
[plane, g] is a line spanned by a central vector. classify_plane is its
one-plane case, plus G_zero, G_pos and G2 on the planes that meet the
center z. There [g, sigma] must be a line Rq for a non-central sigma:
with q outside sigma, G2 iff q is central; with q in sigma, G2 iff
{v : [g, v] in Rq, [sigma, v] = 0} is larger than sigma. A central sigma
is G2 iff some v has im ad_v a line inside sigma, which is a real rank
drop of a rectangular matrix pencil (Kronecker; Gantmacher, The Theory
of Matrices, vol. 2, ch. XII). No step sweeps coefficients, so the labels
do not depend on the basis.

Sign witnesses are constructed, not searched for: an adapted basis
built from the target and basis vectors e_i of the algebra, made
orthonormal, then a diagonal deformation with the exponent pattern that
forces the desired sign in the limit (for planes, first the single
scaled adapted directions of adapted_metric_family). Nothing is random,
so a witness depends only on the algebra and the target; a construction
that fails on valid input is a defect, reported as WitnessSearchError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    NilpotentAlgebra,
    Subspace,
    basis_vector,
    exact_vector,
)
from .curvature import (
    Metric,
    ad_images,
    frame_structure,
    ricci_form_matrix,
    ricci_frame,
    sectional_K,
)
from .deformation import (
    DeformationSpec,
    complement_frame,
    complete_basis,
    exponent_tensor,
)
from .rational import in_row_space, nullspace, rank, solve

# A witness value must clear these bounds; reports print the same values.
RIC_POSITIVE_MIN = 1e-9
RIC_NEGATIVE_MAX = -1e-9
K_NEGATIVE_MAX = -1e-9
# adapted_metric_family scales one adapted direction by 10^(+-k) for these k
ADAPTED_DECADES = (1, 2, 3, 4)


class PreconditionError(ValueError):
    pass


class WitnessSearchError(RuntimeError):
    """The witness construction failed on valid input (a defect)."""


# ---------------------------------------------------------------------------
# vector classification


def classify_ric_vector(algebra: NilpotentAlgebra, x) -> str:
    """One of g_pos, g_geq_only, g_zero_trivial, outside."""
    xv = exact_vector(x)
    if all(v == 0 for v in xv):
        return "g_zero_trivial"
    z = algebra.center()
    if not z.contains(xv):
        return "outside"
    if algebra.derived_algebra().contains(xv):
        return "g_pos"
    return "g_geq_only"


# ---------------------------------------------------------------------------
# plane classification

# planes per block in plane_labels; bounds their temporary arrays
_CHUNK = 4096


def plane_labels(algebra: NilpotentAlgebra, xs, ys) -> dict:
    """Exact labels of the planes span(xs[r], ys[r]), for integer rows.

    abelian: [x, y] = 0. G1 (meets the center): ad_x and ad_y are
    dependent (Cauchy-Schwarz equality of their entries). On abelian
    planes, G_geq: the bracket-pencil condition, all symmetrized 2x2
    minors of the stacked ad-images vanish; and on those that miss the
    center, G2: [plane, g] is a line span(p) with p central. That is the
    definition: [g, a3] = span(p) for a3 = span(x, y, p) means [g, p] in
    span(p), i.e. p central (ad is nilpotent); then a3 is abelian, an
    ideal, and three-dimensional (p is not in the plane). G2 is left
    False on planes that meet the center, which classify_plane decides.

    No label changes when the bracket or a vector is scaled, so the
    structure constants are scaled by the lcm of their denominators. The
    arithmetic is int64 when its largest value, at most
    n^8 (max|c| max|x, y|)^4, stays below 2^62, and Python ints otherwise.
    """
    n = algebra.n
    scale = math.lcm(*(c.denominator for comps in algebra.brackets.values()
                       for c in comps.values()))
    ci = np.zeros((n, n, n), dtype=object)
    for (i, j), comps in algebra.brackets.items():
        for k, c in comps.items():
            ci[i, j, k], ci[j, i, k] = int(c * scale), -int(c * scale)
    xs, ys = np.asarray(xs), np.asarray(ys)
    top = int(np.abs(ci).max(initial=0)) * int(max(
        np.abs(xs).max(initial=0), np.abs(ys).max(initial=0)))
    dtype = np.int64 if n ** 8 * top ** 4 < 2 ** 62 else object
    ci, xs, ys = ci.astype(dtype), xs.astype(dtype), ys.astype(dtype)
    mi, mj = np.triu_indices(n)             # m1 <= m2
    ki, kj = np.triu_indices(n, k=1)        # k < l
    m1, m2 = mi[:, None], mj[:, None]
    k, l = ki[None, :], kj[None, :]
    out = {name: np.zeros(len(xs), dtype=bool)
           for name in ("abelian", "G1", "G_geq", "G2")}
    for s in range(0, len(xs), _CHUNK):
        x, y = xs[s:s + _CHUNK], ys[s:s + _CHUNK]
        ax, ay = ad_images(ci, x), ad_images(ci, y)
        abelian = ~np.any(np.matmul(y[:, None, :], ax)[:, 0, :] != 0,
                          axis=1)
        mx, my = ax.reshape(len(x), -1), ay.reshape(len(x), -1)
        g1 = (np.sum(mx * mx, axis=1) * np.sum(my * my, axis=1)
              == np.sum(mx * my, axis=1) ** 2)
        out["abelian"][s:s + len(x)] = abelian
        out["G1"][s:s + len(x)] = g1
        rows = np.nonzero(abelian)[0]
        if not len(rows):
            continue
        a, b = ax[rows], ay[rows]
        pencil = (a[:, m1, k] * b[:, m2, l] - a[:, m1, l] * b[:, m2, k]
                  + a[:, m2, k] * b[:, m1, l] - a[:, m2, l] * b[:, m1, k])
        out["G_geq"][s + rows] = ~np.any(pencil != 0, axis=(1, 2))
        rows = rows[~g1[rows]]
        images = np.concatenate([ax[rows], ay[rows]], axis=1)  # [plane, g]
        lead = np.argmax(np.any(images != 0, axis=2), axis=1)
        p = images[np.arange(len(rows)), lead]
        # every image parallel to p: Cauchy-Schwarz equality
        line = np.all(np.sum(images * images, axis=2)
                      * np.sum(p * p, axis=1)[:, None]
                      == np.sum(images * p[:, None, :], axis=2) ** 2,
                      axis=1)
        p_central = ~np.any(ad_images(ci, p) != 0, axis=(1, 2))
        out["G2"][s + rows] = line & p_central
    return out


def _brackets_into(algebra: NilpotentAlgebra, vectors) -> list:
    """Rows whose null space is {v : [g, v] in span(vectors)}: each form f
    of the annihilator of the span, applied to [e_m, v]."""
    n = algebra.n
    ann = nullspace(vectors, n)
    return [[sum(f[k] * ad[k][j] for k in range(n)) for j in range(n)]
            for ad in (algebra.ad(basis_vector(n, m)) for m in range(n))
            for f in ann]


def _central_plane_g2(algebra: NilpotentAlgebra, sigma: Subspace,
                      z: Subspace) -> bool:
    """G2 for a central plane sigma: some v has im ad_v a line inside
    sigma (nilpotency puts the line [g, a3] of a G2 ideal sigma + Rv
    there).

    Such v lie in W = {v : [g, v] in sigma}, which contains z, and ad_v
    depends on v mod z only. With u_1..u_k a basis of a complement of z
    in W, and A, B the n x k matrices of the two sigma-coordinates of
    [u_i, e_m], v = sum t_i u_i qualifies iff At and Bt are parallel, so
    iff the pencil aA + bB drops rank at some real (a : b): at (0 : 1) iff
    rank B < k, elsewhere at a real root of the gcd of the k x k minors
    of A - tB (nonzero when rank B = k).
    """
    n = algebra.n
    us, span = [], z
    for v in nullspace(_brackets_into(algebra, sigma.basis), n):
        if not span.contains(v):
            us.append(v)
            span = span.sum(Subspace([v], n))
    k = len(us)
    ab = [[sigma.coordinates(algebra.bracket(u, basis_vector(n, m)))
           for u in us] for m in range(n)]
    a, b = ([[c[i] for c in row] for row in ab] for i in (0, 1))
    if k <= 1:      # k = 1: Au parallel to Bu
        return k == 1 and rank([[r[0] for r in a], [r[0] for r in b]]) == 1
    if rank(b) < k:
        return True
    import sympy

    t = sympy.Symbol("t")
    pencil = sympy.Matrix(a) - t * sympy.Matrix(b)
    gcd = sympy.Poly(0, t)
    for sel in itertools.combinations(range(n), k):
        gcd = gcd.gcd(sympy.Poly(pencil[list(sel), :].det(), t))
    return gcd.count_roots() > 0


def classify_plane(algebra: NilpotentAlgebra, x, y) -> set[str]:
    """Labels among {G_geq, G_zero, G_pos, G1, G2} for span(x, y).

    plane_labels labels the RREF basis, denominators cleared. On a
    non-central plane sigma = span(x0, y0) with x0 central, a G2 ideal a3
    has [g, a3] = [g, sigma] = [g, y0], so that must be a line Rq in a3:
    with q outside sigma, a3 = sigma + Rq, fine iff q is central; with q
    in sigma, iff {v : [g, v] in Rq, [sigma, v] = 0} exceeds sigma.
    """
    n = algebra.n
    sigma = Subspace([x, y], n)
    if sigma.dim != 2:
        raise PreconditionError("vectors do not span a two-plane")
    bx, by = sigma.basis
    xs, ys = (np.array([[int(v * math.lcm(*(w.denominator for w in row)))
                         for v in row]], dtype=object) for row in (bx, by))
    bulk = plane_labels(algebra, xs, ys)
    labels = {name for name in ("G1", "G_geq", "G2") if bulk[name][0]}
    if "G1" not in labels:
        return labels
    z = algebra.center()
    inter = sigma.intersection(z)
    if inter.dim == 2:
        return labels | {"G_zero"} | (
            {"G2"} if _central_plane_g2(algebra, sigma, z) else set())
    x0 = inter.basis[0]
    y0 = bx if not inter.contains(bx) else by
    image = Subspace([algebra.bracket(y0, basis_vector(n, m))
                      for m in range(n)], n)
    # positivity: needs the central X in sigma to lie in [Y, g]
    if image.contains(x0):
        labels.add("G_pos")
    if image.dim == 1:
        q = image.basis[0]
        if sigma.contains(q):
            rows = _brackets_into(algebra, [q]) \
                + [r for v in sigma.basis for r in algebra.ad(v)]
            g2 = len(nullspace(rows, n)) > 2
        else:
            g2 = z.contains(q)
        if g2:
            labels.add("G2")
    return labels


# ---------------------------------------------------------------------------
# deformation expansion of the sectional curvature


def secdef_coefficients(algebra: NilpotentAlgebra, metric: Metric,
                        lambdas, x, y, frame=None) -> dict:
    """Coefficient tables of the deformed sectional curvature expansion.

    K_t(x, y) = sum_{i,j,k} exp((l_j + l_k - l_i) t) Psi[i,j,k]
              + sum_i exp(l_i t) Phi[i],
    with mu[i][j](U, V) = <U, e_j><e_j, [e_i, V]> in the metric frame
    (or in a caller-supplied g-orthonormal frame, columns).
    """
    f = metric.frame if frame is None else np.asarray(frame, float)
    # frame coordinates u_f = f^T G u, and c[i,l,j] = <e_j, [e_i, e_l]>
    fg = f.T @ metric.gram
    c = frame_structure(algebra, metric, f)
    xf, yf = fg @ np.asarray(x, float), fg @ np.asarray(y, float)
    lam = np.asarray(lambdas, float)

    def mu(uf, vf):
        return uf[None, :] * np.einsum("ilj,l->ij", c, vf)

    s = mu(xf, yf) + mu(yf, xf)
    psi = 0.25 * np.einsum("ij,ik->ijk", s, s) \
        - np.einsum("ij,ik->ijk", mu(xf, xf), mu(yf, yf))
    bxy = algebra.bracket_float(x, y)
    phi = (-0.75 * (fg @ bxy) ** 2
           - 0.5 * yf * (fg @ algebra.bracket_float(x, bxy))
           - 0.5 * xf * (fg @ algebra.bracket_float(y, -bxy)))

    def evaluate(t: float) -> float:
        wpsi = np.exp((lam[None, :, None] + lam[None, None, :]
                       - lam[:, None, None]) * t)
        return float(np.sum(wpsi * psi) + np.sum(np.exp(lam * t) * phi))

    return {"Psi": psi, "Phi": phi, "evaluate": evaluate}


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class SignWitness:
    kind: str                      # ric_positive | ric_negative | K_negative
    gram: np.ndarray               # base Gram matrix
    value: float
    target: list
    lambdas: np.ndarray | None = None   # deformation exponents, if used
    frame: np.ndarray | None = None
    t: float | None = None
    scaled_value: float | None = None
    scaled_target: float | None = None

    def spec(self) -> DeformationSpec | None:
        if self.lambdas is None:
            return None
        return DeformationSpec(base=Metric(self.gram), lambdas=self.lambdas,
                               frame=self.frame)


def _scaled_ric_ladder(algebra: NilpotentAlgebra, metric: Metric,
                       frame: np.ndarray, lambdas: np.ndarray, idx: int
                       ) -> Callable[[float], tuple[float, float]]:
    """t -> (exp(-d t) Ric_t(e_idx, e_idx), d) with d the dominant exponent.

    Ric_t(e_idx, e_idx) is exp(lambda_idx t) times the [idx, idx] entry
    of deformed_ricci_frame, which only involves the triples touching idx.
    Those get the weights exp((x_ijk + lambda_idx - d) t) <= 1, with x
    the `exponent_tensor`; the others (and numerical-noise constants)
    weight 0, so the value stays finite for large t. The frame tensor,
    the exponents and d do not depend on t and are computed once, here.
    """
    c = frame_structure(algebra, metric, frame)
    expo = exponent_tensor(lambdas) + lambdas[idx]
    touch = np.zeros(c.shape, dtype=bool)
    touch[idx], touch[:, idx], touch[:, :, idx] = True, True, True
    live = touch & (np.abs(c) > 1e-12 * (np.abs(c).max() + 1.0))
    if not live.any():
        return lambda t: (0.0, 0.0)
    d = float(expo[live].max())
    shifted = np.where(live, expo - d, -np.inf)
    return lambda t: (float(ricci_frame(c, np.exp(shifted * t))[idx, idx]),
                      d)


def _independent_pair_for(algebra: NilpotentAlgebra, zv) -> tuple:
    """X, Y with rank(X, Y, Z) = 3 and [X, Y] not a multiple of Z.

    The first pair of basis vectors (e_i, e_j), in combinations order,
    whose bracket is not a multiple of Z; when Z lies in span(e_i, e_j),
    both are moved along their bracket. Some [e_i, e_j] is not a multiple
    of Z unless g' = RZ, and then Z is central and derived, which the
    caller handles first."""
    n = algebra.n
    zf = exact_vector(zv)
    for i, j in itertools.combinations(range(n), 2):
        x, y = basis_vector(n, i), basis_vector(n, j)
        b = algebra.bracket(x, y)
        if all(v == 0 for v in b):
            continue
        if in_row_space([zf], b):
            continue
        if rank([x, y, zf]) != 3:
            # Z in span(X, Y): perturb along the bracket
            a_c, b_c = solve([[x[k], y[k]] for k in range(n)], zf)
            x = [xi + a_c * bi for xi, bi in zip(x, b)]
            y = [yi + b_c * bi for yi, bi in zip(y, b)]
            b = algebra.bracket(x, y)
            if all(v == 0 for v in b) or in_row_space([zf], b) \
                    or rank([x, y, zf]) != 3:
                continue
        return x, y, b
    raise WitnessSearchError("no independent bracket pair found")


def find_positive_ric_witness(algebra: NilpotentAlgebra, z) -> SignWitness:
    """A metric (possibly deformed to finite t) with Ric(z) > 0."""
    zv = np.asarray(z, float)
    if np.linalg.norm(zv) == 0.0:
        raise PreconditionError("z must be nonzero")
    if algebra.is_abelian():
        raise PreconditionError("algebra is abelian: Ricci vanishes "
                                "identically")
    n = algebra.n
    ze = exact_vector(z)
    gp = algebra.derived_algebra()
    zc = algebra.center()
    if gp.contains(ze) and zc.contains(ze):
        # central derived vector: any metric seeing a bracket works
        metric = Metric.identity(n)
        r = ricci_form_matrix(algebra, metric)
        val = float(zv @ r @ zv)
        return SignWitness(kind="ric_positive", gram=metric.gram,
                           value=val, target=list(map(float, zv)))
    x, y, b = _independent_pair_for(algebra, z)
    xf = np.array([float(v) for v in x])
    yf = np.array([float(v) for v in y])
    # basis order: Z, middle..., X, Y
    mid = complete_basis([zv, xf, yf])
    basis = np.column_stack([zv] + mid + [xf, yf])
    # ensure the Z-coefficient of [X, Y] in this basis is nonzero
    bf = np.array([float(v) for v in b])
    coeffs = np.linalg.solve(basis, bf)
    if abs(coeffs[0]) < 1e-12:
        tilt = next(i for i in range(1, n) if abs(coeffs[i]) > 1e-9)
        basis[:, tilt] = basis[:, tilt] + zv
        coeffs = np.linalg.solve(basis, bf)
    alpha = float(coeffs[0])
    metric = Metric.orthonormalizing(basis)
    lam = np.concatenate([[float(n)],
                          np.arange(n - 2, 1, -1, dtype=float),
                          [1.0, 0.0]])
    assert lam.shape == (n,)
    target = 0.5 * alpha * alpha
    scaled_ric = _scaled_ric_ladder(algebra, metric, basis, lam, 0)
    for t in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]:
        val, d = scaled_ric(t)
        if val > RIC_POSITIVE_MIN and abs(val - target) <= 0.05 * target:
            with np.errstate(over="ignore"):
                full = val * np.exp(d * t)
            return SignWitness(kind="ric_positive", gram=metric.gram,
                               value=float(full),
                               target=list(map(float, zv)),
                               lambdas=lam, frame=basis, t=t,
                               scaled_value=val, scaled_target=target)
    raise WitnessSearchError("deformation did not reach the scaled limit")


def find_negative_ric_witness(algebra: NilpotentAlgebra, x) -> SignWitness:
    """A deformed metric with Ric(x) < 0; requires x not central.

    The deformation blows up an outgoing bracket w = [x, y] of x, with y
    the unit vector along e_i minus its x-component, for the first basis
    vector e_i that brackets x nontrivially (one exists because x is not
    central). [x, y] = [x, e_i], and y stays orthogonal to x even when x
    is nearly parallel to e_i."""
    xe = exact_vector(x)
    if algebra.center().contains(xe):
        raise PreconditionError("x is central: Ric(x) >= 0 for every metric")
    xf = np.asarray(x, float)
    n = algebra.n
    for i in range(n):
        w = algebra.bracket(xe, basis_vector(n, i))
        if any(w):
            break
    yv = np.eye(n)[i] - xf[i] / (xf @ xf) * xf
    yv = yv / np.linalg.norm(yv)
    wf = np.array([float(v) for v in w])
    # basis order: x, w-direction, middle..., y
    mid = complete_basis([xf, wf, yv])
    basis = np.column_stack([xf, wf] + mid + [yv])
    metric = Metric.orthonormalizing(basis)
    lam = np.zeros(n)
    lam[1] = 1.0
    lam[-1] = -1.0
    scaled_ric = _scaled_ric_ladder(algebra, metric, basis, lam, 0)
    for t in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]:
        val, d = scaled_ric(t)
        if val < 0:
            with np.errstate(over="ignore"):
                full = val * np.exp(d * t)
            if full < RIC_NEGATIVE_MAX:
                return SignWitness(kind="ric_negative", gram=metric.gram,
                                   value=float(full),
                                   target=list(map(float, xf)),
                                   lambdas=lam, frame=basis, t=t)
    raise WitnessSearchError("negative Ricci deformation failed")


def adapted_metric_family(algebra: NilpotentAlgebra, x, y) -> Metric:
    """Plane-adapted diagonal metrics, as one stacked Metric: an adapted
    basis (x, y, [x, y], completion) with one direction scaled by
    10^(+-k) at a time, k in ADAPTED_DECADES.

    Negative sectional curvature on a plane outside the nonnegative-sign
    set is typically reached by shrinking or stretching a single adapted
    direction, which a generic random Gram matrix rarely does.
    """
    n = algebra.n
    xf = np.asarray(x, float)
    yf = np.asarray(y, float)
    w = algebra.bracket_float(xf, yf)
    cols = [xf, yf] + ([w] if np.linalg.norm(w) > 1e-9 else [])
    b = np.column_stack(cols + complete_basis(cols))
    d = np.ones((len(ADAPTED_DECADES), n, 2, n))
    for i, k in enumerate(ADAPTED_DECADES):
        for pos in range(n):
            d[i, pos, :, pos] = 10.0 ** (-k), 10.0 ** k
    # one stacked pass over the bases, in the order k, pos, sign
    return Metric.orthonormalizing(b * np.sqrt(d.reshape(-1, 1, n)))


def _pencil_failure_witness(algebra: NilpotentAlgebra, bx: np.ndarray,
                            by: np.ndarray) -> SignWitness | None:
    """Deformation witness for an abelian plane failing the bracket-pencil
    condition.

    Adapted frame (e_1, e_2, ..., e_n = e) with e chosen so that
    [e, Y] leaves the plane, and exponents (10, 9, 2, ..., 2, 0): the
    dominant coefficient of the curvature expansion is a negative multiple
    of <X,e_1><e_1,[e,X]> <Y,e_2><e_2,[e,Y]>, and e_1, e_2 are picked to
    make that product positive.

    e is the first e_i, then the first e_i + e_j in combinations order,
    at which [e, X] and [e, Y] are independent over Q. The pencil fails
    at one of them: [u, X] ^ [u, Y] is quadratic in u, so it vanishes on
    all of g if it vanishes at every e_i and e_i + e_j; None when it
    does. For such an e, ad_e is injective on the plane, and e is
    not in plane + [e, plane]: e = [e, A] + B there would make e - B an
    eigenvector of ad_A with eigenvalue -1. So the frame exists, and
    [e, X] leaves span(Y, [e, Y], e), unless Y is the one direction D
    with [e, D] in the plane, or [e, D]. Some ordered pair of the four
    directions x, y, x + y, x - y avoids both.
    """
    n = algebra.n
    xe, ye = exact_vector(bx), exact_vector(by)
    units = [basis_vector(n, i) for i in range(n)]
    pool = units + [[p + q for p, q in zip(u, v)]
                    for u, v in itertools.combinations(units, 2)]
    e = next((np.array(u, float) for u in pool
              if rank([algebra.bracket(u, xe), algebra.bracket(u, ye)]) == 2),
             None)
    if e is None:
        return None
    for x_v, y_v in itertools.permutations((bx, by, bx + by, bx - by), 2):
        w = algebra.bracket_float(e, y_v)
        if np.linalg.matrix_rank(np.column_stack([bx, by, w]), tol=1e-9) < 3:
            continue
        have = [x_v, w, y_v, e]
        if np.linalg.matrix_rank(np.column_stack(have), tol=1e-9) < 4:
            continue
        comp = complete_basis(have)
        basis = np.column_stack([x_v] + comp + [w, y_v, e])
        metric = Metric.orthonormalizing(basis)
        # component of [e, X] orthogonal to span(e, Y, [e, Y])
        coords = np.linalg.solve(basis, algebra.bracket_float(e, x_v))
        dvec = sum(coords[i] * basis[:, i]
                   for i in range(1 + len(comp)))
        dnorm = np.sqrt(max(metric.norm2(dvec), 0.0))
        if dnorm < 1e-9:
            continue
        dhat = dvec / dnorm
        xhat = x_v / np.sqrt(metric.norm2(x_v))
        if abs(abs(metric.inner(xhat, dhat)) - 1.0) < 1e-9:
            e1 = xhat
            s1 = float(np.sign(metric.inner(dhat, xhat)))
        else:
            e1 = xhat + dhat
            e1 = e1 / np.sqrt(metric.norm2(e1))
            s1 = 1.0
        e2 = y_v / np.sqrt(metric.norm2(y_v)) \
            + s1 * w / np.sqrt(metric.norm2(w))
        e2 = e2 / np.sqrt(metric.norm2(e2))
        en = e / np.sqrt(metric.norm2(e))
        # e1, e2, en are g-orthonormal; the middle block has the one
        # exponent 2, so its basis does not change g_t
        frame = np.column_stack(
            [e1, e2, complement_frame(metric, [e1, e2, en]), en])
        lam = np.array([10.0, 9.0] + [2.0] * (n - 3) + [0.0])
        tables = secdef_coefficients(algebra, metric, lam, bx, by,
                                     frame=frame)
        for t in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
            val = tables["evaluate"](t)
            if val < K_NEGATIVE_MAX:
                return SignWitness(kind="K_negative",
                                   gram=metric.gram, value=float(val),
                                   target=[list(map(float, bx)),
                                           list(map(float, by))],
                                   lambdas=lam, frame=frame, t=t)
    return None


def find_negative_K_witness(algebra: NilpotentAlgebra, x, y) -> SignWitness:
    """A metric with sectional_K(x, y) < 0; the plane must lie outside the
    nonnegative-sign set.

    The plane-adapted metrics of adapted_metric_family first; on an
    abelian plane that none of them witnesses, the deformation of
    _pencil_failure_witness."""
    xf = np.asarray(x, float)
    yf = np.asarray(y, float)
    for metric in adapted_metric_family(algebra, xf, yf):
        val = sectional_K(algebra, metric, xf, yf)
        if val < K_NEGATIVE_MAX:
            return SignWitness(kind="K_negative", gram=metric.gram.copy(),
                               value=val,
                               target=[list(map(float, xf)),
                                       list(map(float, yf))])
    if np.linalg.norm(algebra.bracket_float(xf, yf)) < 1e-12:
        witness = _pencil_failure_witness(algebra, xf, yf)
        if witness is not None:
            return witness
    raise WitnessSearchError("no negative sectional witness constructed")
