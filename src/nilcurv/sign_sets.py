"""Metric-independent curvature-sign sets and explicit sign witnesses.

Vector classification: the Ricci sign of X is metric-independent exactly
when X is central (nonnegative) resp. central and in the derived algebra
(positive). Plane classification: the sectional sign of a two-plane is
metric-independently nonnegative iff the plane is abelian and satisfies
the bracket-pencil condition; that set also equals G1 (planes meeting the
center) union G2 (planes inside a three-dimensional abelian ideal whose
bracket with the algebra is a line).

Witness searches are seeded and deterministic: random SPD metrics first,
then diagonal deformations with the exponent patterns that force the
desired sign in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    NilpotentAlgebra,
    Subspace,
    basis_vector,
    exact_vector,
)
from .curvature import (
    Metric,
    frame_structure,
    ricci_form_matrix,
    ricci_frame,
    sectional_K,
)
from .deformation import DeformationSpec, complete_basis
from .rational import rank, in_row_space

WITNESS_METRIC_BUDGET = 200
WITNESS_DEFORM_BUDGET = 20
# A witness value must clear these bounds; reports print the same values.
RIC_POSITIVE_MIN = 1e-9
RIC_NEGATIVE_MAX = -1e-9
K_NEGATIVE_MAX = -1e-9


class PreconditionError(ValueError):
    pass


class WitnessSearchError(RuntimeError):
    """Search budget exhausted without a witness."""


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


def _pencil_condition(algebra: NilpotentAlgebra, x, y) -> bool:
    """Exact check of: for every Z, [x, Z] and [y, Z] are parallel.

    Written as identical vanishing of all 2x2 minors of the stacked
    ad-images, i.e. the symmetric parts of a_k (x) b_l - a_l (x) b_k are
    zero, where a_k, b_k are the rows of ad_x, ad_y.
    """
    a = algebra.ad(x)
    b = algebra.ad(y)
    n = algebra.n
    rows = [k for k in range(n)
            if any(a[k][m] != 0 or b[k][m] != 0 for m in range(n))]
    cols = [m for m in range(n)
            if any(a[k][m] != 0 or b[k][m] != 0 for k in rows)]
    for ki, k in enumerate(rows):
        for l in rows[ki + 1:]:
            for p1, m1 in enumerate(cols):
                for m2 in cols[p1:]:
                    c = (a[k][m1] * b[l][m2] - a[l][m1] * b[k][m2]
                         + a[k][m2] * b[l][m1] - a[l][m2] * b[k][m1])
                    if c != 0:
                        return False
    return True


def _common_bracket_direction(algebra: NilpotentAlgebra,
                              plane_basis) -> list[Fraction] | None:
    """Direction P with [v, Z] || P for all v in the plane, all Z; None if
    the bracket images are not all parallel or all vanish."""
    images = []
    probes = list(plane_basis)
    if len(plane_basis) == 2:
        probes.append([a + b for a, b in zip(*plane_basis)])
    for v in probes:
        for m in range(algebra.n):
            w = algebra.bracket(v, basis_vector(algebra.n, m))
            if any(c != 0 for c in w):
                images.append(w)
    if not images:
        return None
    if rank(images) != 1:
        return None
    return images[0]


def _is_G2(algebra: NilpotentAlgebra, sigma: Subspace) -> bool:
    """Existence of an abelian 3-dim ideal containing sigma with
    one-dimensional bracket [g, a3]."""
    x, y = sigma.basis
    if any(c != 0 for c in algebra.bracket(x, y)):
        return False
    p = _common_bracket_direction(algebra, sigma.basis)
    candidates: list[list[Fraction]] = []
    if p is not None:
        candidates = [p]
    elif algebra.center().contains_subspace(sigma):
        # central plane: bounded sweep for the extension direction
        grid = [Fraction(v) for v in (-1, 0, 1)]

        def gen(prefix):
            if len(prefix) == algebra.n:
                if any(c != 0 for c in prefix):
                    candidates.append(list(prefix))
                return
            for c in grid:
                gen(prefix + [c])
        if algebra.n <= 7:
            gen([])
    for cand in candidates:
        if sigma.contains(cand):
            continue
        a3 = sigma.sum(Subspace([cand], algebra.n))
        if a3.dim != 3:
            continue
        if not algebra.is_abelian_subspace(a3):
            continue
        if not algebra.is_ideal(a3):
            continue
        imgs = []
        for m in range(algebra.n):
            for v in a3.basis:
                imgs.append(algebra.bracket(basis_vector(algebra.n, m), v))
        if rank(imgs) == 1:
            return True
    return False


def classify_plane(algebra: NilpotentAlgebra, x, y) -> set[str]:
    """Labels among {G_geq, G_zero, G_pos, G1, G2} for span(x, y)."""
    sigma = Subspace([x, y], algebra.n)
    if sigma.dim != 2:
        raise PreconditionError("vectors do not span a two-plane")
    bx, by = sigma.basis
    z = algebra.center()
    inter = sigma.intersection(z)
    labels: set[str] = set()
    if inter.dim == 2:
        labels.add("G_zero")
    if inter.dim >= 1:
        labels.add("G1")
    abelian_plane = all(c == 0 for c in algebra.bracket(bx, by))
    if abelian_plane and _pencil_condition(algebra, bx, by):
        labels.add("G_geq")
    if _is_G2(algebra, sigma):
        labels.add("G2")
    # positivity: needs a central X in sigma lying in [Y, g]
    if inter.dim == 1 and "G_zero" not in labels:
        x0 = inter.basis[0]
        y0 = bx if not inter.contains(bx) else by
        image = Subspace([algebra.bracket(y0, basis_vector(algebra.n, m))
                          for m in range(algebra.n)], algebra.n)
        if image.contains(x0):
            labels.add("G_pos")
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
    n = algebra.n
    f = metric.frame if frame is None else np.asarray(frame, float)
    g = metric.gram
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    lam = np.asarray(lambdas, float)

    def mu(i, j, u, v):
        ej = f[:, j]
        return float(u @ g @ ej) * float(
            ej @ g @ algebra.bracket_float(f[:, i], v))

    mu_xy = np.array([[mu(i, j, x, y) for j in range(n)] for i in range(n)])
    mu_yx = np.array([[mu(i, j, y, x) for j in range(n)] for i in range(n)])
    mu_xx = np.array([[mu(i, j, x, x) for j in range(n)] for i in range(n)])
    mu_yy = np.array([[mu(i, j, y, y) for j in range(n)] for i in range(n)])
    s = mu_xy + mu_yx
    psi = 0.25 * np.einsum("ij,ik->ijk", s, s) \
        - np.einsum("ij,ik->ijk", mu_xx, mu_yy)
    bxy = algebra.bracket_float(x, y)
    bxxy = algebra.bracket_float(x, bxy)
    byyx = algebra.bracket_float(y, -bxy)
    phi = np.zeros(n)
    for i in range(n):
        ei = f[:, i]
        phi[i] = (-0.75 * float(ei @ g @ bxy) ** 2
                  - 0.5 * float(y @ g @ ei) * float(ei @ g @ bxxy)
                  - 0.5 * float(x @ g @ ei) * float(ei @ g @ byyx))

    def evaluate(t: float) -> float:
        wpsi = np.exp((lam[None, :, None] + lam[None, None, :]
                       - lam[:, None, None]) * t)
        return float(np.sum(wpsi * psi) + np.sum(np.exp(lam * t) * phi))

    return {"Psi": psi, "Phi": phi,
            "mu_xy": mu_xy, "mu_yx": mu_yx, "mu_xx": mu_xx, "mu_yy": mu_yy,
            "evaluate": evaluate}


def knonneg_value(algebra: NilpotentAlgebra, metric: Metric, x, y) -> float:
    """(1/4) sum_i (<X,[e_i,Y]> - <Y,[e_i,X]>)^2 for a plane with
    metric-independent nonnegative sectional curvature."""
    labels = classify_plane(algebra, x, y)
    if "G_geq" not in labels:
        raise PreconditionError("plane is not in the nonnegative-sign set")
    sigma = Subspace([x, y], algebra.n)
    bx = np.array([float(v) for v in sigma.basis[0]])
    by = np.array([float(v) for v in sigma.basis[1]])
    f = metric.frame
    g = metric.gram
    total = 0.0
    for i in range(algebra.n):
        ei = f[:, i]
        term = (float(bx @ g @ algebra.bracket_float(ei, by))
                - float(by @ g @ algebra.bracket_float(ei, bx)))
        total += term * term
    return 0.25 * total


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class SignWitness:
    kind: str                      # ric_positive | ric_negative | K_negative
    gram: np.ndarray               # base Gram matrix
    value: float
    target: list
    seed: int
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


def _scaled_ric_of_frame_vector(algebra: NilpotentAlgebra,
                                metric: Metric, frame: np.ndarray,
                                lambdas: np.ndarray, t: float,
                                idx: int) -> tuple[float, float]:
    """(exp(-d t) Ric_t(e_idx, e_idx), d) with d the dominant exponent.

    Ric_t(e_idx, e_idx) is exp(lambda_idx t) times the [idx, idx] entry
    of deformed_ricci_frame, which only involves the triples touching idx.
    Those get the weights exp((lambda_k - lambda_i - lambda_j + lambda_idx
    - d) t) <= 1, the others (and numerical-noise constants) weight 0, so
    the value stays finite for large t.
    """
    c = frame_structure(algebra, metric, frame)
    lam = lambdas
    expo = lam[None, None, :] - lam[:, None, None] - lam[None, :, None] \
        + lam[idx]
    touch = np.zeros(c.shape, dtype=bool)
    touch[idx], touch[:, idx], touch[:, :, idx] = True, True, True
    live = touch & (np.abs(c) > 1e-12 * (np.abs(c).max() + 1.0))
    if not live.any():
        return 0.0, 0.0
    d = float(expo[live].max())
    weights = np.exp(np.where(live, expo - d, -np.inf) * t)
    return float(ricci_frame(c, weights)[idx, idx]), d


def _independent_pair_for(algebra: NilpotentAlgebra, zv, rng) -> tuple:
    """X, Y with rank(X, Y, Z) = 3 and [X, Y] not a multiple of Z.

    Falls back to the bracket-perturbation construction when sampling
    fails (Z inside every sampled plane)."""
    n = algebra.n
    zf = exact_vector(zv)
    for _ in range(200):
        x = [Fraction(int(rng.integers(-5, 6))) for _ in range(n)]
        y = [Fraction(int(rng.integers(-5, 6))) for _ in range(n)]
        b = algebra.bracket(x, y)
        if all(v == 0 for v in b):
            continue
        if in_row_space([zf], b):
            continue
        if rank([x, y, zf]) != 3:
            # Z in span(X, Y): perturb along the bracket
            from .rational import solve
            coeffs = solve([[x[i], y[i]] for i in range(n)], zf)
            if coeffs is None:
                continue
            a_c, b_c = coeffs
            x = [xi + a_c * bi for xi, bi in zip(x, b)]
            y = [yi + b_c * bi for yi, bi in zip(y, b)]
            b = algebra.bracket(x, y)
            if all(v == 0 for v in b) or in_row_space([zf], b) \
                    or rank([x, y, zf]) != 3:
                continue
        return x, y, b
    raise WitnessSearchError("no independent bracket pair found")


def find_positive_ric_witness(algebra: NilpotentAlgebra, z,
                              seed: int = 0) -> SignWitness:
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
                           value=val, target=list(map(float, zv)), seed=seed)
    rng = np.random.default_rng(seed)
    x, y, b = _independent_pair_for(algebra, z, rng)
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
    gram = np.linalg.inv(basis @ basis.T)
    metric = Metric(gram)
    lam = np.concatenate([[float(n)],
                          np.arange(n - 2, 1, -1, dtype=float),
                          [1.0, 0.0]])
    assert lam.shape == (n,)
    target = 0.5 * alpha * alpha
    for t in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]:
        val, d = _scaled_ric_of_frame_vector(algebra, metric, basis, lam,
                                             t, 0)
        if val > RIC_POSITIVE_MIN and abs(val - target) <= 0.05 * target:
            with np.errstate(over="ignore"):
                full = val * np.exp(d * t)
            return SignWitness(kind="ric_positive", gram=gram,
                               value=float(full),
                               target=list(map(float, zv)), seed=seed,
                               lambdas=lam, frame=basis, t=t,
                               scaled_value=val, scaled_target=target)
    raise WitnessSearchError("deformation did not reach the scaled limit")


def find_negative_ric_witness(algebra: NilpotentAlgebra, x,
                              seed: int = 0) -> SignWitness:
    """A metric (possibly deformed) with Ric(x) < 0; requires x not
    central."""
    xe = exact_vector(x)
    if algebra.center().contains(xe):
        raise PreconditionError("x is central: Ric(x) >= 0 for every metric")
    xf = np.asarray(x, float)
    rng = np.random.default_rng(seed)
    for _ in range(WITNESS_METRIC_BUDGET):
        metric = Metric.random(algebra.n, rng)
        r = ricci_form_matrix(algebra, metric)
        val = float(xf @ r @ xf)
        if val < RIC_NEGATIVE_MAX:
            return SignWitness(kind="ric_negative", gram=metric.gram,
                               value=val, target=list(map(float, xf)),
                               seed=seed)
    # deformation: blow up an outgoing bracket of x
    n = algebra.n
    yv = None
    for _ in range(200):
        y = [Fraction(int(rng.integers(-5, 6))) for _ in range(n)]
        w = algebra.bracket(xe, y)
        if any(v != 0 for v in w):
            yv = np.array([float(v) for v in y])
            wf = np.array([float(v) for v in w])
            break
    if yv is None:
        raise WitnessSearchError("no bracket partner found for x")
    # basis order: x, w-direction, middle..., y
    mid = complete_basis([xf, wf, yv])
    basis = np.column_stack([xf, wf] + mid + [yv])
    coeffs = np.linalg.solve(basis, wf)  # trivially e_2
    gram = np.linalg.inv(basis @ basis.T)
    metric = Metric(gram)
    lam = np.zeros(n)
    lam[1] = 1.0
    lam[-1] = -1.0
    for t in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]:
        val, d = _scaled_ric_of_frame_vector(algebra, metric, basis, lam,
                                             t, 0)
        if val < 0:
            with np.errstate(over="ignore"):
                full = val * np.exp(d * t)
            if full < RIC_NEGATIVE_MAX:
                return SignWitness(kind="ric_negative", gram=gram,
                                   value=float(full),
                                   target=list(map(float, xf)), seed=seed,
                                   lambdas=lam, frame=basis, t=t)
    raise WitnessSearchError("negative Ricci deformation failed")


def adapted_metric_family(algebra: NilpotentAlgebra, x, y,
                          decades: tuple[int, ...] = (1, 2, 3, 4)
                          ) -> list[Metric]:
    """Plane-adapted diagonal metrics: an adapted basis (x, y, [x, y],
    completion) with one direction scaled by 10^(+-k) at a time.

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
    out = []
    for k in decades:
        for pos in range(n):
            for sgn in (-1, 1):
                d = np.ones(n)
                d[pos] = 10.0 ** (sgn * k)
                g = np.linalg.inv(b @ np.diag(d) @ b.T)
                out.append(Metric(0.5 * (g + g.T)))
    return out


def _pencil_failure_witness(algebra: NilpotentAlgebra, bx: np.ndarray,
                            by: np.ndarray, seed: int) -> SignWitness | None:
    """Deformation witness for an abelian plane failing the bracket-pencil
    condition.

    Adapted frame (e_1, e_2, ..., e_n = e) with e chosen so that
    [e, Y] leaves the plane, and exponents (10, 9, 2, ..., 2, 0): the
    dominant coefficient of the curvature expansion is a negative multiple
    of <X,e_1><e_1,[e,X]> <Y,e_2><e_2,[e,Y]>, and e_1, e_2 are picked to
    make that product positive.
    """
    n = algebra.n
    pool = [np.eye(n)[:, i] for i in range(n)]
    pool = pool + [p + q for i, p in enumerate(pool)
                   for q in pool[i + 1:]] \
        + [p - q for i, p in enumerate(pool) for q in pool[i + 1:]]
    for e in pool:
        for x_v, y_v in ((bx, by), (by, bx), (bx + by, by), (bx - by, bx)):
            w = algebra.bracket_float(e, y_v)
            if np.linalg.matrix_rank(np.column_stack([bx, by, w]),
                                     tol=1e-9) < 3:
                continue
            have = [x_v, w, y_v, e]
            if np.linalg.matrix_rank(np.column_stack(have), tol=1e-9) < 4:
                continue
            comp = complete_basis(have)
            basis = np.column_stack([x_v] + comp + [w, y_v, e])
            gram = np.linalg.inv(basis @ basis.T)
            metric = Metric(0.5 * (gram + gram.T))
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
            frame_cols = [e1, e2]
            for v in [w, y_v] + comp + list(np.eye(n).T):
                u = np.asarray(v, float).copy()
                for f in frame_cols + [en]:
                    u = u - metric.inner(u, f) * f
                nn = np.sqrt(max(metric.norm2(u), 0.0))
                if nn > 1e-8:
                    frame_cols.append(u / nn)
                if len(frame_cols) == n - 1:
                    break
            if len(frame_cols) != n - 1:
                continue
            frame_cols.append(en)
            frame = np.column_stack(frame_cols)
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
                                       seed=seed, lambdas=lam,
                                       frame=frame, t=t)
    return None


def find_negative_K_witness(algebra: NilpotentAlgebra, x, y,
                            seed: int = 0) -> SignWitness:
    """A metric with sectional_K(x, y) < 0; the plane must lie outside the
    nonnegative-sign set."""
    xf = np.asarray(x, float)
    yf = np.asarray(y, float)
    for metric in adapted_metric_family(algebra, xf, yf):
        val = sectional_K(algebra, metric, xf, yf)
        if val < K_NEGATIVE_MAX:
            return SignWitness(kind="K_negative", gram=metric.gram,
                               value=val,
                               target=[list(map(float, xf)),
                                       list(map(float, yf))], seed=seed)
    if np.linalg.norm(algebra.bracket_float(xf, yf)) < 1e-12:
        witness = _pencil_failure_witness(algebra, xf, yf, seed)
        if witness is not None:
            return witness
    rng = np.random.default_rng(seed)
    for _ in range(WITNESS_METRIC_BUDGET):
        metric = Metric.random(algebra.n, rng)
        val = sectional_K(algebra, metric, xf, yf)
        if val < K_NEGATIVE_MAX:
            return SignWitness(kind="K_negative", gram=metric.gram,
                               value=val,
                               target=[list(map(float, xf)),
                                       list(map(float, yf))], seed=seed)
    # deformation fallback along the proof recipe
    for trial in range(WITNESS_DEFORM_BUDGET):
        metric = Metric.random(algebra.n, rng)
        lam = np.sort(rng.uniform(0.0, 1.0, size=algebra.n))[::-1]
        lam[0] += 1.0
        spec = DeformationSpec(base=metric, lambdas=lam)
        tables = secdef_coefficients(algebra, metric, lam, xf, yf)
        for t in (2.0, 5.0, 10.0, 20.0, 40.0):
            val = tables["evaluate"](t)
            if val < K_NEGATIVE_MAX:
                return SignWitness(kind="K_negative", gram=metric.gram,
                                   value=float(val),
                                   target=[list(map(float, xf)),
                                           list(map(float, yf))],
                                   seed=seed, lambdas=lam,
                                   frame=metric.frame, t=t)
    raise WitnessSearchError("no negative sectional witness found "
                             "within budget")
