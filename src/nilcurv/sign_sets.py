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
The two Ricci searches also take (N, n) rows of targets, searched as one
stack with one witness or error per row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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
    MetricError,
    ad_images,
    frame_structure,
    one_or_rows,
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
from .rational import integer_nullspace, integer_row, integer_rref, rank

# A witness value must clear these bounds; reports print the same values.
RIC_POSITIVE_MIN = 1e-9
RIC_NEGATIVE_MAX = -1e-9
K_NEGATIVE_MAX = -1e-9
# a positive Ricci witness on a deformation path also has its scaled value
# within this share of its scaled-limit target
SCALED_LIMIT_REL = 0.05
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
    bracket is the integer one of `algebra.integer_constants()`, D times
    the true one. The arithmetic is int64 when
    n^8 (max(1, max|c|) max|x, y|)^4, a bound on its largest value and on
    the entries of x and y themselves (all c may be 0), stays below 2^62,
    and Python ints otherwise.
    """
    n = algebra.n
    ci = np.zeros((n, n, n), dtype=object)
    for (i, j), comps in algebra.integer_constants()[0].items():
        for k, c in comps:
            ci[i, j, k], ci[j, i, k] = c, -c
    xs, ys = np.asarray(xs), np.asarray(ys)
    top = max(1, int(np.abs(ci).max(initial=0))) * int(max(
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
    """Integer rows whose null space is {v : [g, v] in span(vectors)}:
    each form f of the annihilator of the span, applied to [e_m, v], over
    the integer constants (zero rows left out)."""
    n = algebra.n
    ann = integer_nullspace([integer_row(v)[0] for v in vectors], n)[0]
    rows: dict[tuple[int, int], list[int]] = {}
    for (i, j), comps in algebra.integer_constants()[0].items():
        for r, f in enumerate(ann):
            s = sum(f[k] * c for k, c in comps)   # f([e_i, e_j])
            if s:
                rows.setdefault((i, r), [0] * n)[j] += s
                rows.setdefault((j, r), [0] * n)[i] -= s
    return list(rows.values())


# univariate integer polynomials: coefficient lists, lowest degree first,
# with no trailing zero ([] is the zero polynomial)

def _upoly(coeffs) -> list[int]:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _upoly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _upoly(out)


def _upoly_rem(p: list[int], q: list[int]) -> list[int]:
    """The remainder of c p on division by q, for a c > 0 that makes it
    integral (a pseudo-remainder that keeps the sign), made primitive."""
    lead = q[-1]
    r = list(p)
    while len(r) >= len(q):
        f, shift = r[-1], len(r) - len(q)
        r = [abs(lead) * x for x in r]
        for i, y in enumerate(q):
            r[shift + i] -= (f if lead > 0 else -f) * y
        r = _upoly(r)
    g = math.gcd(*r)
    return [x // g for x in r] if g > 1 else r


def _upoly_gcd(p: list[int], q: list[int]) -> list[int]:
    """A gcd of p and q up to a nonzero constant, by the primitive
    polynomial remainder sequence (Collins 1967; Brown 1971)."""
    while q:
        p, q = q, _upoly_rem(p, q)
    return p


def _real_root_count(p: list[int]) -> int:
    """The number of distinct real roots of p != 0: the sign changes of
    its Sturm sequence p, p', -rem, ... at -infinity less those at
    +infinity (each term scaled by a positive constant, which keeps its
    signs)."""
    seq = [p, _upoly([i * c for i, c in enumerate(p)][1:])]
    while seq[-1]:
        seq.append([-x for x in _upoly_rem(seq[-2], seq[-1])])
    seq.pop()

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))
    lead = [1 if q[-1] > 0 else -1 for q in seq]
    return changes([s * (-1) ** (len(q) - 1) for s, q in zip(lead, seq)]) \
        - changes(lead)


def _pencil_minors(a: list[list[int]], b: list[list[int]], k: int):
    """The k x k minors det(A - tB) of the integer n x k matrices A and
    B, over every choice of k rows, by the Leibniz formula."""
    perms = [(p, (-1) ** sum(x > y for x, y in itertools.combinations(p, 2)))
             for p in itertools.permutations(range(k))]
    for sel in itertools.combinations(range(len(a)), k):
        out = [0] * (k + 1)
        for perm, sign in perms:
            term = [sign]
            for r, c in zip(sel, perm):
                term = _upoly_mul(term, [a[r][c], -b[r][c]])
            for i, x in enumerate(term):
                out[i] += x
        yield _upoly(out)


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
    of A - tB (nonzero when rank B = k). All of it runs on integer rows:
    the u_i are integer rows and the brackets integer ones, which scales
    every column of A and B by one nonzero constant and so each minor by
    their product.
    """
    n = algebra.n
    us, span = [], z
    for v in integer_nullspace(_brackets_into(algebra, sigma.rows), n)[0]:
        if not span.contains(v):
            us.append(v)
            span = span.sum(Subspace.from_integer_rows([v], n))
    k = len(us)
    # a sigma-coordinate of a vector of sigma is its entry at that pivot
    ab = [[algebra.integer_bracket(u, e) for u in us]
          for e in np.eye(n, dtype=int).tolist()]
    a, b = ([[w[p] for w in row] for row in ab] for p in sigma.pivots)
    if k <= 1:      # k = 1: Au parallel to Bu
        return k == 1 and len(integer_rref(
            [[r[0] for r in a], [r[0] for r in b]])[0]) == 1
    if len(integer_rref(b)[0]) < k:
        return True
    gcd: list[int] = []
    for minor in _pencil_minors(a, b, k):
        gcd = _upoly_gcd(gcd, minor)
    return _real_root_count(gcd) > 0


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
    bx, by = sigma.rows
    xs, ys = (np.array([row], dtype=object) for row in (bx, by))
    bulk = plane_labels(algebra, xs, ys)
    labels = {name for name in ("G1", "G_geq", "G2") if bulk[name][0]}
    if "G1" not in labels:
        return labels
    z = algebra.center()
    inter = sigma.intersection(z)
    if inter.dim == 2:
        return labels | {"G_zero"} | (
            {"G2"} if _central_plane_g2(algebra, sigma, z) else set())
    x0 = inter.rows[0]
    y0 = bx if not inter.contains(bx) else by
    units = np.eye(n, dtype=int).tolist()
    image = Subspace.from_integer_rows(
        [algebra.integer_bracket(y0, e) for e in units], n)
    # positivity: needs the central X in sigma to lie in [Y, g]
    if image.contains(x0):
        labels.add("G_pos")
    if image.dim == 1:
        q = image.rows[0]
        if sigma.contains(q):
            # and the rows of ad_v, v in sigma: [v, e_j]_k over j
            rows = _brackets_into(algebra, [q]) + [
                list(col) for v in sigma.rows for col in zip(
                    *(algebra.integer_bracket(v, e) for e in units))]
            g2 = len(integer_nullspace(rows, n)[0]) > 2
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
                       ) -> Callable:
    """(t, rows) -> (exp(-d t) Ric_t(e_idx, e_idx), d) with d the dominant
    exponent, for a metric and frame or for the rows of a stacked metric
    and its (N, n, n) frames (rows indexes them; all by default).

    Ric_t(e_idx, e_idx) is exp(lambda_idx t) times the [idx, idx] entry
    of deformed_ricci_frame, which only involves the triples touching idx.
    Those get the weights exp((x_ijk + lambda_idx - d) t) <= 1, with x
    the `exponent_tensor`; the others (and numerical-noise constants)
    weight 0, so the value stays finite for large t, and it is 0 at d = 0
    where no triple is left. The frame tensor, the exponents and d do not
    depend on t and are computed once, here; each row is its single
    ladder's to the bit.
    """
    c = frame_structure(algebra, metric, frame)
    expo = exponent_tensor(lambdas) + lambdas[idx]
    touch = np.zeros(expo.shape, dtype=bool)
    touch[idx], touch[:, idx], touch[:, :, idx] = True, True, True
    axes = (-3, -2, -1)
    live = touch & (np.abs(c) > 1e-12 * (np.abs(c).max(axis=axes,
                                                         keepdims=True) + 1.0))
    d = np.where(live, expo, -np.inf).max(axis=axes)
    d = np.where(live.any(axis=axes), d, 0.0)
    shifted = np.where(live, expo - d[..., None, None, None], -np.inf)

    def at(t: float, rows=Ellipsis) -> tuple:
        return (ricci_frame(c[rows], np.exp(shifted[rows] * t))[..., idx, idx],
                d[rows])
    return at


def _independent_pair_for(algebra: NilpotentAlgebra, z: list) -> tuple:
    """X, Y with rank(X, Y, Z) = 3 and [X, Y] not a multiple of Z, for an
    exact nonzero Z, decided on the structure constants.

    The first pair of basis vectors (e_i, e_j), in combinations order,
    whose bracket b is not a multiple of Z (some 2x2 minor of (b, Z) is
    nonzero; the minors with Z's first nonzero entry decide it). rank(e_i,
    e_j, Z) = 3 iff Z has a nonzero entry outside {i, j}. Otherwise Z =
    z_i e_i + z_j e_j, and both are moved along b, to X = e_i + z_i b and
    Y = e_j + z_j b, which need no test: rank(X, Y, Z) = 3 since b is not
    in span(e_i, e_j) (a nonzero bracket in the span of its arguments
    would make ad_e_i or ad_e_j not nilpotent), and [X, Y] = (1 + ad_v) b
    with v = z_j e_i - z_i e_j is no multiple lam Z: ad_v Z = s b with
    s = z_i^2 + z_j^2, so (lam s - ad_v - ad_v^2) b would vanish, and that
    operator is invertible (ad_v is nilpotent). Some [e_i, e_j] is not a
    multiple of Z unless g' = RZ, and then Z is central and derived, which
    the caller handles first."""
    n = algebra.n
    p = next(k for k, v in enumerate(z) if v != 0)

    def parallel(b):        # z's support, and the minors with z_p vanish
        return all((bk != 0) == (zk != 0)
                   and (bk == 0 or bk * z[p] == b[p] * zk)
                   for bk, zk in zip(b, z))

    for i, j in itertools.combinations(range(n), 2):
        b = algebra.basis_bracket(i, j)
        if not any(b) or parallel(b):
            continue
        x, y = basis_vector(n, i), basis_vector(n, j)
        if not any(z[k] for k in range(n) if k != i and k != j):
            x = [xi + z[i] * bi for xi, bi in zip(x, b)]
            y = [yi + z[j] * bi for yi, bi in zip(y, b)]
            b = algebra.bracket(x, y)
        return x, y, b
    raise WitnessSearchError("no independent bracket pair found")


def _binary_shift(v: np.ndarray) -> np.ndarray:
    """The k of each row of v for which 2^k max |v_i| lies in [1, 2) (1
    for a zero row). Scaling by 2^k rounds nothing, so a witness search
    does not depend on the scale of its target, and rows already in range
    keep their bits."""
    return 1 - np.frexp(np.abs(v).max(axis=-1, initial=0.0))[1]


def _scaled_targets(z) -> tuple[np.ndarray, list]:
    """The (N, n) rows of targets z, of shape (n,) or (N, n), each times
    its 2^k of _binary_shift, and their exact vectors: exact_vector of the
    target itself times 2^k, so the exact tests agree with
    classify_ric_vector on the target."""
    v = np.atleast_2d(np.asarray(z, float))
    shift = _binary_shift(v)
    exact = [exact_vector(row) if k == 0 else
             [c * Fraction(2) ** k for c in exact_vector(row)]
             for row, k in zip(v, shift.tolist())]
    return np.ldexp(v, shift[:, None]), exact


def _adapted_bases(head: list, tail: list) -> np.ndarray:
    """The (N, n, n) bases with columns head, complete_basis, tail, of the
    (N, n) rows of the vectors in head and tail; WitnessSearchError if a
    row is too close to dependent for complete_basis to complete it."""
    mid = complete_basis(head + tail)
    if not all(m.any(axis=-1).all() for m in mid):
        raise WitnessSearchError("adapted basis is numerically dependent")
    return np.stack(head + mid + tail, axis=-1)


def _by_rows(stage: Callable, *rows: np.ndarray) -> list:
    """stage(*rows), its list of one result per row; if the stage raises,
    each row is redone alone, so every row gets its own result, or the
    error its single stage raises as a WitnessSearchError."""
    try:
        return stage(*rows)
    except (WitnessSearchError, MetricError, np.linalg.LinAlgError) as exc:
        if len(rows[0]) > 1:
            return [r for i in range(len(rows[0]))
                    for r in _by_rows(stage, *(v[i:i + 1] for v in rows))]
        if not isinstance(exc, WitnessSearchError):
            exc = WitnessSearchError(f"adapted basis: {exc}")
        return [exc]


def _climb(ladder: Callable, n_rows: int, ts: list, accept: Callable
           ) -> dict:
    """{row: (t, scaled value, value)} at the first t of ts where the
    row of the ladder passes accept(rows, scaled values, values), with
    value = scaled value * exp(d t); the ladder runs at each t only on the
    rows not yet resolved, and rows that never pass are left out."""
    hits = {}
    pending = np.arange(n_rows)
    for t in ts:
        vals, d = ladder(t, pending)
        with np.errstate(over="ignore", invalid="ignore"):
            full = vals * np.exp(d * t)
        ok = accept(pending, vals, full)
        hits.update((r, (t, v, f)) for r, v, f in
                    zip(pending[ok].tolist(), vals[ok], full[ok]))
        pending = pending[~ok]
        if not len(pending):
            break
    return hits


def find_positive_ric_witness(algebra: NilpotentAlgebra, z):
    """A metric (possibly deformed to finite t) with Ric(z) > 0.

    z is first scaled by a power of two to max |z_i| in [1, 2)
    (`_scaled_targets`), and the witness is for that target. Rows z of
    shape (N, n) are searched as one stack and give a list with, per row,
    its SignWitness or the PreconditionError or WitnessSearchError that
    its single call raises. The exact tests run per row; the adapted
    bases, their metrics and the deformation ladder run once per stack,
    the ladder at each t only on the rows not yet resolved."""
    rows, exact = _scaled_targets(z)
    n = algebra.n
    out: list = [None] * len(rows)
    central, deform, pairs = [], [], []
    for r, (zv, ze) in enumerate(zip(rows, exact)):
        if not zv.any():
            out[r] = PreconditionError("z must be nonzero")
        elif algebra.is_abelian():
            out[r] = PreconditionError("algebra is abelian: Ricci vanishes "
                                       "identically")
        elif algebra.derived_algebra().contains(ze) \
                and algebra.center().contains(ze):
            central.append(r)
        else:
            pairs.append(_independent_pair_for(algebra, ze))
            deform.append(r)
    if central:
        # central derived vector: any metric seeing a bracket works
        metric = Metric.identity(n)
        ric = ricci_form_matrix(algebra, metric)
        for r in central:
            out[r] = SignWitness(kind="ric_positive", gram=metric.gram.copy(),
                                 value=float(rows[r] @ ric @ rows[r]),
                                 target=list(map(float, rows[r])))
    if deform:
        xs, ys, bs = (np.array(v, dtype=float) for v in zip(*pairs))
        for r, w in zip(deform, _by_rows(
                lambda *v: _positive_deformation(algebra, *v),
                rows[deform], xs, ys, bs)):
            out[r] = w
    return one_or_rows(out, np.ndim(z) == 2)


def _positive_deformation(algebra: NilpotentAlgebra, zv: np.ndarray,
                          xf: np.ndarray, yf: np.ndarray, bf: np.ndarray
                          ) -> list:
    """The deformation stage of find_positive_ric_witness on (N, n) rows
    of targets Z and their pairs X, Y with [X, Y] = b: the basis (Z,
    middle..., X, Y) with the pattern (n, n-2, ..., 2, 1, 0) blows up the
    Z-component alpha of b, and exp(-d t) Ric_t(Z) tends to alpha^2 / 2."""
    n = algebra.n
    basis = _adapted_bases([zv], [xf, yf])
    # the Z-coefficient of [X, Y] in the basis must be nonzero
    coeffs = np.linalg.solve(basis, bf[..., None])[..., 0]
    for r in np.nonzero(np.abs(coeffs[:, 0]) < 1e-12)[0]:
        tilt = next(i for i in range(1, n) if abs(coeffs[r, i]) > 1e-9)
        basis[r, :, tilt] = basis[r, :, tilt] + zv[r]
        coeffs[r] = np.linalg.solve(basis[r], bf[r])
    metric = Metric.orthonormalizing(basis)
    lam = np.concatenate([[float(n)],
                          np.arange(n - 2, 1, -1, dtype=float),
                          [1.0, 0.0]])
    target = 0.5 * coeffs[:, 0] * coeffs[:, 0]
    hits = _climb(_scaled_ric_ladder(algebra, metric, basis, lam, 0),
                  len(zv), [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
                  lambda r, val, full: (val > RIC_POSITIVE_MIN)
                  & (np.abs(val - target[r])
                     <= SCALED_LIMIT_REL * target[r]))
    return [SignWitness(kind="ric_positive", gram=metric.gram[r].copy(),
                        value=float(hits[r][2]),
                        target=list(map(float, zv[r])), lambdas=lam.copy(),
                        frame=basis[r].copy(), t=hits[r][0],
                        scaled_value=float(hits[r][1]),
                        scaled_target=float(target[r])) if r in hits
            else WitnessSearchError("deformation did not reach the scaled "
                                    "limit")
            for r in range(len(zv))]


def find_negative_ric_witness(algebra: NilpotentAlgebra, x):
    """A deformed metric with Ric(x) < 0; requires x not central.

    The deformation blows up an outgoing bracket w = [x, y] of x, with y
    the unit vector along e_i minus its x-component, for the first basis
    vector e_i that brackets x nontrivially (one exists because x is not
    central). [x, y] = [x, e_i], and y stays orthogonal to x even when x
    is nearly parallel to e_i. x is first scaled by a power of two to
    max |x_i| in [1, 2), and rows x of shape (N, n) give a list, as in
    find_positive_ric_witness."""
    rows, exact = _scaled_targets(x)
    n = algebra.n
    out: list = [None] * len(rows)
    deform, ws, ys = [], [], []
    for r, (xf, xe) in enumerate(zip(rows, exact)):
        for i in range(n):
            w = algebra.bracket(xe, basis_vector(n, i))
            if any(w):
                break
        else:
            out[r] = PreconditionError("x is central: Ric(x) >= 0 for every "
                                       "metric")
            continue
        yv = np.eye(n)[i] - xf[i] / (xf @ xf) * xf
        deform.append(r)
        ws.append(w)
        ys.append(yv / np.linalg.norm(yv))
    if deform:
        for r, w in zip(deform, _by_rows(
                lambda *v: _negative_deformation(algebra, *v),
                rows[deform], np.array(ws, dtype=float), np.array(ys))):
            out[r] = w
    return one_or_rows(out, np.ndim(x) == 2)


def _negative_deformation(algebra: NilpotentAlgebra, xf: np.ndarray,
                          wf: np.ndarray, yv: np.ndarray) -> list:
    """The deformation stage of find_negative_ric_witness on (N, n) rows
    of x, w = [x, y] and y: the basis (x, w, middle..., y) with the
    pattern (0, 1, 0, ..., 0, -1)."""
    n = algebra.n
    basis = _adapted_bases([xf, wf], [yv])
    metric = Metric.orthonormalizing(basis)
    lam = np.zeros(n)
    lam[1] = 1.0
    lam[-1] = -1.0
    hits = _climb(_scaled_ric_ladder(algebra, metric, basis, lam, 0),
                  len(xf), [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                  lambda r, val, full: full < RIC_NEGATIVE_MAX)
    return [SignWitness(kind="ric_negative", gram=metric.gram[r].copy(),
                        value=float(hits[r][2]),
                        target=list(map(float, xf[r])), lambdas=lam.copy(),
                        frame=basis[r].copy(), t=hits[r][0]) if r in hits
            else WitnessSearchError("negative Ricci deformation failed")
            for r in range(len(xf))]


def adapted_metric_family(algebra: NilpotentAlgebra, x, y) -> Metric:
    """Plane-adapted diagonal metrics, as one stacked Metric: an adapted
    basis (x, y, [x, y], completion) with one direction scaled by
    10^(+-k) at a time, k in ADAPTED_DECADES.

    Negative sectional curvature on a plane outside the nonnegative-sign
    set is typically reached by shrinking or stretching a single adapted
    direction, which a generic random Gram matrix rarely does. A plane
    whose adapted basis is numerically dependent raises WitnessSearchError.
    """
    n = algebra.n
    xf = np.asarray(x, float)
    yf = np.asarray(y, float)
    w = algebra.bracket_float(xf, yf)
    cols = [xf, yf] + ([w] if np.linalg.norm(w) > 1e-9 else [])
    b = _adapted_bases([v[None] for v in cols], [])[0]
    d = np.ones((len(ADAPTED_DECADES), n, 2, n))
    for i, k in enumerate(ADAPTED_DECADES):
        for pos in range(n):
            d[i, pos, :, pos] = 10.0 ** (-k), 10.0 ** k
    # one stacked pass over the bases, in the order k, pos, sign
    try:
        return Metric.orthonormalizing(b * np.sqrt(d.reshape(-1, 1, n)))
    except MetricError as exc:
        raise WitnessSearchError(f"adapted basis: {exc}") from None


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

    The plane-adapted metrics of adapted_metric_family first, in one
    stacked sectional_K call whose first row below K_NEGATIVE_MAX is the
    witness; on an abelian plane that none of them witnesses, the
    deformation of _pencil_failure_witness. x and y are first scaled by
    powers of two to max |x_i|, max |y_i| in [1, 2) (`_binary_shift`),
    and the witness is for that pair."""
    xf, yf = (np.ldexp(v, _binary_shift(v))
              for v in (np.asarray(x, float), np.asarray(y, float)))
    metrics = adapted_metric_family(algebra, xf, yf)
    vals = sectional_K(algebra, metrics, xf, yf)
    below = vals < K_NEGATIVE_MAX
    if below.any():
        r = int(np.argmax(below))
        return SignWitness(kind="K_negative", gram=metrics.gram[r].copy(),
                           value=float(vals[r]),
                           target=[list(map(float, xf)),
                                   list(map(float, yf))])
    if np.linalg.norm(algebra.bracket_float(xf, yf)) < 1e-12:
        witness = _pencil_failure_witness(algebra, xf, yf)
        if witness is not None:
            return witness
    raise WitnessSearchError("no negative sectional witness constructed")
