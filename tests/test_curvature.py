"""Curvature oracles on small algebras plus metric-independence and
contraction identities."""

import numpy as np
import pytest

from nilcurv import (
    Metric,
    MetricError,
    build,
    list_catalog,
    ricci_operator,
    sectional_K,
    sectional_kappa,
)
from nilcurv.curvature import (
    DegeneratePlaneError,
    RicciReport,
    frame_structure,
    ricci_form_matrix,
)


def h3():
    return build("heisenberg", m=1)


X, Y, Z = np.eye(3)


def test_metric_validation():
    with pytest.raises(MetricError):
        Metric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(MetricError):
        Metric(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(MetricError):
        Metric(np.ones((2, 3)))


def _symmetric_by_allclose(g):
    """The symmetry test of Metric before its exact fast path."""
    return np.allclose(g, g.T, atol=1e-12 * (1 + np.abs(g).max()))


def _passes_symmetry_test(g):
    try:
        Metric(g)
    except MetricError as err:
        return "symmetric" not in str(err)
    return True


def test_metric_symmetry_test_matches_allclose():
    rng = np.random.default_rng(16)
    cases = []
    for n in (1, 2, 4, 6):
        for _ in range(5):
            g = Metric.random(n, rng).gram
            cases.append(g)                        # exactly symmetric
            cases.append(-g)                       # symmetric, not PD
            for rel in (1e-9, 1e-6, 1e-4, 1e-2):   # rtol of allclose: 1e-5
                p = g.copy()
                i, j = rng.integers(0, n, size=2)
                p[i, j] += rel * (np.abs(g).max() + 1.0)
                cases.append(p)
            for bad in (np.nan, np.inf, -np.inf):
                p = g.copy()
                i, j = rng.integers(0, n, size=2)
                p[i, j] = bad
                cases.append(p.copy())             # one entry
                p[j, i] = bad
                cases.append(p)                    # a symmetric pair
    verdicts = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for g in cases:
            want = _symmetric_by_allclose(g)
            assert _passes_symmetry_test(g) == want, g
            verdicts.add(want)
    assert verdicts == {True, False}
    # an empty gram has no max: both raise
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError):
        _symmetric_by_allclose(empty)
    with pytest.raises(ValueError):
        Metric(empty)


def test_frame_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = Metric.random(4, rng)
        f = m.frame
        assert np.abs(f.T @ m.gram @ f - np.eye(4)).max() < 1e-10


def test_orthonormalizing_metric():
    """The columns of a square basis are orthonormal in
    Metric.orthonormalizing(B); a dependent or non-square basis raises,
    also when the dependence is only up to rounding."""
    rng = np.random.default_rng(3)
    for n in (3, 5, 7):
        b = rng.normal(size=(n, n))
        g = Metric.orthonormalizing(b).gram
        assert np.abs(b.T @ g @ b - np.eye(n)).max() < 1e-10
        # about one in five of these gives an SPD (B B^T)^-1 by rounding
        for _ in range(20):
            b[:, -1] = b[:, :-1] @ rng.normal(size=n - 1)
            with pytest.raises(MetricError):
                Metric.orthonormalizing(b)
    with pytest.raises(MetricError):
        Metric.orthonormalizing(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(MetricError):
        Metric.orthonormalizing(np.ones((2, 3)))


def test_orthonormalizing_accepts_unequal_column_lengths():
    """A basis of condition number about 740 whose first column is 100
    times longer than the others: the rounding of (B B^T)^-1 is not
    symmetric to the Metric bound, yet the basis is orthonormal in the
    metric made from it."""
    b = np.array([[1, -1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0],
                  [1, 0, 0, 0, 0, 0], [-1, -1, 0, 0, 0, 0],
                  [1, 0, 1, 0, 0, 1], [1, 0, 1, 0, 0, 0]], dtype=float)
    b[:, 0] *= 100.0
    g = Metric.orthonormalizing(b).gram
    assert np.array_equal(g, g.T)
    assert np.abs(b.T @ g @ b - np.eye(6)).max() < 1e-10


def u_operator(algebra, metric, v, w):
    """U(v, w): <U(v,w), z> = (1/2)(<v,[z,w]> + <w,[z,v]>) for all z,
    term by term: the reference the Ricci and sectional kernels are
    checked against."""
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    c = algebra.structure_tensor()
    g = metric.gram
    # f_m = (1/2)(<v, [e_m, w]> + <w, [e_m, v]>)
    zw = np.einsum("mjk,j->mk", c, w)  # [e_m, w]
    zv = np.einsum("mjk,j->mk", c, v)
    f = 0.5 * (zw @ g @ v + zv @ g @ w)
    return metric._inv @ f


def test_u_operator_h3_oracle():
    a, m = h3(), Metric.identity(3)
    assert np.abs(u_operator(a, m, X, Y)).max() < 1e-14
    assert np.abs(u_operator(a, m, Z, X) - (-0.5 * Y)).max() < 1e-14


def test_u_operator_defining_identity():
    """<U(v,w), z> = (1/2)(<v,[z,w]> + <w,[z,v]>) for random inputs."""
    a = build("filiform_standard", n=5)
    rng = np.random.default_rng(2)
    m = Metric.random(5, rng)
    for _ in range(10):
        v, w, z = rng.uniform(-1, 1, (3, 5))
        lhs = m.inner(u_operator(a, m, v, w), z)
        rhs = 0.5 * (m.inner(v, a.bracket_float(z, w))
                     + m.inner(w, a.bracket_float(z, v)))
        assert abs(lhs - rhs) < 1e-10


def test_sectional_h3_oracles():
    a, m = h3(), Metric.identity(3)
    assert abs(sectional_K(a, m, X, Y) - (-0.75)) < 1e-14
    assert abs(sectional_K(a, m, X, Z) - 0.25) < 1e-14
    assert abs(sectional_kappa(a, m, X, Y) - (-0.75)) < 1e-14


def test_kappa_degenerate_plane():
    a, m = h3(), Metric.identity(3)
    with pytest.raises(DegeneratePlaneError):
        sectional_kappa(a, m, X, 2.0 * X)


def test_central_sectional_nonnegative():
    rng = np.random.default_rng(3)
    for key, params in (("heisenberg", {"m": 2}), ("filiform4", {}),
                        ("L5_lemma7a", {})):
        a = build(key, **params)
        zb = np.array([[float(v) for v in row] for row in a.center().basis])
        for _ in range(20):
            m = Metric.random(a.n, rng)
            x = rng.uniform(-1, 1, zb.shape[0]) @ zb
            y = rng.uniform(-1, 1, a.n)
            assert sectional_K(a, m, x, y) >= -1e-12


def test_ricci_h3_oracles():
    a, m = h3(), Metric.identity(3)
    assert abs(X @ ricci_form_matrix(a, m) @ X - (-0.5)) < 1e-14
    assert abs(Z @ ricci_form_matrix(a, m) @ Z - 0.5) < 1e-14
    vals = ricci_operator(a, m).eigenvalues
    assert np.abs(vals - [-0.5, -0.5, 0.5]).max() < 1e-10


def test_abelian_ricci_zero():
    a = build("abelian", n=3)
    rng = np.random.default_rng(4)
    m = Metric.random(3, rng)
    assert np.abs(ricci_operator(a, m).operator).max() < 1e-14


def test_operator_matches_form_and_self_adjoint():
    rng = np.random.default_rng(5)
    for key in ("filiform4", "L6_3"):
        a = build(key)
        m = Metric.random(a.n, rng)
        rep = ricci_operator(a, m)
        sym = m.gram @ rep.operator
        assert np.abs(sym - sym.T).max() < 1e-10
        for _ in range(5):
            x, y = rng.uniform(-1, 1, (2, a.n))
            assert abs(m.inner(rep.operator @ x, y)
                       - x @ ricci_form_matrix(a, m) @ y) < 1e-10


def test_frame_independence_of_ricci():
    """Ric from the Cholesky frame equals Ric from a rotated frame."""
    a = build("L5_lemma7a")
    rng = np.random.default_rng(6)
    m = Metric.random(5, rng)
    q, _ = np.linalg.qr(rng.uniform(-1, 1, (5, 5)))
    other = m.frame @ q   # still g-orthonormal
    c1 = frame_structure(a, m)
    c2 = frame_structure(a, m, other)
    r1 = 0.25 * np.einsum("ija,ijb->ab", c1, c1) \
        - 0.5 * np.einsum("aik,bik->ab", c1, c1)
    r2 = 0.25 * np.einsum("ija,ijb->ab", c2, c2) \
        - 0.5 * np.einsum("aik,bik->ab", c2, c2)
    # compare as bilinear forms on the original basis
    f1, f2 = np.linalg.inv(m.frame), np.linalg.inv(other)
    assert np.abs(f1.T @ r1 @ f1 - f2.T @ r2 @ f2).max() < 1e-10


def test_scalar_contraction_identity():
    """Sum over j != i of K(E_i, E_j) equals Ric(E_i, E_i)."""
    rng = np.random.default_rng(7)
    for entry_key in ("heisenberg", "filiform4", "L6_1"):
        a = build(entry_key, m=1) if entry_key == "heisenberg" \
            else build(entry_key)
        for _ in range(3):
            m = Metric.random(a.n, rng)
            f = m.frame
            for i in range(a.n):
                total = sum(sectional_K(a, m, f[:, i], f[:, j])
                            for j in range(a.n) if j != i)
                ric = f[:, i] @ ricci_form_matrix(a, m) @ f[:, i]
                assert abs(total - ric) < 1e-9 * (1.0 + abs(ric))


def test_two_step_sign_structure():
    rng = np.random.default_rng(8)
    a = build("heisenberg_x_abelian", l=2, pad=1)
    gp = np.array([[float(v) for v in row]
                   for row in a.derived_algebra().basis])
    for _ in range(20):
        m = Metric.random(a.n, rng)
        x = rng.uniform(-1, 1, gp.shape[0]) @ gp
        assert x @ ricci_form_matrix(a, m) @ x >= -1e-12
        # y orthogonal to g' in the metric
        y = rng.uniform(-1, 1, a.n)
        for row in gp:
            y = y - m.inner(y, row) / m.norm2(row) * row
        assert y @ ricci_form_matrix(a, m) @ y <= 1e-12


TWO_STEP = [e.build() for e in list_catalog("two-step")
            if not e.build().is_abelian()]


@pytest.mark.parametrize("a", TWO_STEP, ids=lambda a: a.name)
def test_two_step_ricci_matches_eberlein(a):
    """Eberlein's j-map closed forms on n = v + z, z the center, v its
    orthogonal complement, <j(Z) X, Y> = <Z, [X, Y]>: Ric = (1/2) sum_k
    j(Z_k)^2 on v, Ric(Z, W) = -(1/4) tr(j(Z) j(W)) on z, Ric(v, z) = 0."""
    rng = np.random.default_rng(a.n)
    zb = np.array([[float(v) for v in row] for row in a.center().basis]).T
    for _ in range(5):
        m = Metric.random(a.n, rng)
        g = m.gram
        # g-orthonormal bases (columns) of z and of v
        zs = zb @ np.linalg.inv(np.linalg.cholesky(zb.T @ g @ zb)).T
        vb = np.linalg.svd(zb.T @ g)[2][zb.shape[1]:].T
        vs = vb @ np.linalg.inv(np.linalg.cholesky(vb.T @ g @ vb)).T
        q = vs.shape[1]
        # j[k][r, s] = <Z_k, [V_s, V_r]>, the matrix of j(Z_k) on v
        j = np.array([[[m.inner(z, a.bracket_float(vs[:, s], vs[:, r]))
                        for s in range(q)] for r in range(q)]
                      for z in zs.T])
        r = ricci_form_matrix(a, m)
        tol = 1e-9 * (1.0 + np.abs(j).max() ** 2)
        np.testing.assert_allclose(vs.T @ r @ vs,
                                   0.5 * sum(jk @ jk for jk in j), atol=tol)
        np.testing.assert_allclose(zs.T @ r @ zs,
                                   -0.25 * np.einsum("krs,lsr->kl", j, j),
                                   atol=tol)
        np.testing.assert_allclose(vs.T @ r @ zs, 0.0, atol=tol)


def test_eigen_simplicity_flags():
    a, m = h3(), Metric.identity(3)
    rep = ricci_operator(a, m)
    assert rep.max_simple and not rep.min_simple


def test_zero_eigenvalue_under_infinite_scale():
    # the scale exp(2 * shift) of a deformation limit can overflow to inf
    with np.errstate(all="raise"):
        rep = RicciReport.from_frame_matrix(np.diag([0.0, -1.0, 1.0]),
                                            np.eye(3), scale=np.inf)
    np.testing.assert_array_equal(rep.eigenvalues, [-np.inf, 0.0, np.inf])
