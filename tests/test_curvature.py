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
    ricci_frame,
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


def _orthonormalizing_reference(b):
    """The scalar construction that Metric.orthonormalizing stacks: the
    symmetrized (B B^T)^-1 as a Metric, and the 1/n dependence bound."""
    try:
        s = np.linalg.inv(b @ b.T)
    except np.linalg.LinAlgError:
        raise MetricError("basis vectors are linearly dependent")
    metric = Metric(0.5 * (s + s.T))
    if np.abs(b.T @ metric.gram @ b - np.eye(len(b))).max() >= 1 / len(b):
        raise MetricError("basis vectors are linearly dependent")
    return metric.gram


def _bases(rng, n, count):
    """Random bases, every third with one column 100 times longer."""
    b = rng.normal(size=(count, n, n))
    b[::3, :, 0] *= 100.0
    return b


def test_one_row_stack_is_the_scalar_metric():
    """A one-row stack, the N=1 case Metric.orthonormalizing, and the
    scalar construction give the same Gram matrix to rounding."""
    rng = np.random.default_rng(21)
    for n in (3, 5, 6, 7):
        for b in _bases(rng, n, 30):
            want = _orthonormalizing_reference(b)
            for got in (Metric.orthonormalizing(b[None])[0].gram,
                        Metric.orthonormalizing(b).gram):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_stack_fails_like_the_loop():
    """A dependent basis in the middle of a stack: the stack raises what
    the loop of Metric.orthonormalizing raises at it, on the path where
    the stacked inverse fails (a zero row of B makes B B^T exactly
    singular) and where it does not (dependence up to rounding). With
    both in one stack it raises MetricError."""
    rng = np.random.default_rng(22)
    seen = set()
    for trial in range(40):
        b = _bases(rng, 5, 20)

        def loop():
            for row in b:
                Metric.orthonormalizing(row)
        good = b[13].copy()
        b[13, 2] = 0.0
        assert _raised(Metric.orthonormalizing, b) == _raised(loop) \
            == (MetricError, "basis vectors are linearly dependent")
        assert _raised(Metric.orthonormalizing, b.reshape(4, 5, 5, 5)) \
            == _raised(loop)
        r = 7 + trial % 5
        b[r, :, -1] = b[r, :, :-1] @ rng.normal(size=4)
        assert _raised(Metric.orthonormalizing, b)[0] is MetricError
        b[13] = good
        want = _raised(loop)
        assert want[0] is MetricError
        assert _raised(Metric.orthonormalizing, b) == want
        seen.add(want[1])
    assert len(seen) == 2     # both messages occur


def _metric_reference(g):
    """The construction of a single Metric, step by step: symmetrize,
    lower Cholesky factor L, frame L^-T and inverse F F^T."""
    gram = 0.5 * (g + g.T)
    frame = np.linalg.inv(np.linalg.cholesky(gram)).T
    return gram, frame, frame @ frame.T


def _same_metric(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("gram", "frame", "_inv"))


def test_single_metric_is_the_reference_construction():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4, 6, 7):
        for _ in range(10):
            g = Metric.random(n, rng).gram
            g[0, -1] += 1e-14 * np.abs(g).max()   # symmetric to tolerance
            m = Metric(g)
            assert all(np.array_equal(got, want) for got, want in zip(
                (m.gram, m.frame, m._inv), _metric_reference(g)))


def test_stack_rows_are_the_single_metrics():
    """Row i of a stacked Metric, or of Metric.orthonormalizing of a stack,
    is bitwise the Metric of the i-th Gram matrix or basis alone, and
    shares the stack's arrays."""
    rng = np.random.default_rng(24)
    for n in (1, 3, 5, 6, 7):
        grams = np.array([Metric.random(n, rng).gram for _ in range(12)])
        bases = _bases(rng, n, 12)
        for stack, single in ((Metric(grams), Metric),
                              (Metric.orthonormalizing(bases),
                               Metric.orthonormalizing)):
            rows = grams if single is Metric else bases
            assert len(stack) == 12 and stack.n == n
            for i, row in enumerate(stack):
                assert _same_metric(row, single(rows[i]))
                assert np.shares_memory(row.frame, stack.frame)
            assert i == 11
    nested = Metric(grams.reshape(3, 4, n, n))
    assert len(nested) == 3 and len(nested[2]) == 4
    assert _same_metric(nested[2][1], Metric(grams[9]))


def test_single_metric_has_no_rows():
    """Indexing, iterating over or taking len() of a single metric raises
    TypeError rather than yielding nothing."""
    m = Metric.identity(3)
    for probe in (lambda: m[0], lambda: len(m), lambda: list(m)):
        with pytest.raises(TypeError):
            probe()


@pytest.mark.parametrize("bad", ["symmetric", "positive definite"])
def test_metric_stack_fails_like_the_loop(bad):
    """A non-symmetric or non-positive-definite Gram matrix in a stack
    raises what the loop of single metrics raises at it, also when a later
    row fails the other test, whose message shows once the first is
    mended."""
    rng = np.random.default_rng(25)
    grams = np.array([Metric.random(4, rng).gram for _ in range(20)])
    if bad == "symmetric":
        grams[6, 0, 1] += 1e-3
        grams[13, 2, 2] = -1.0
    else:
        grams[6, 2, 2] = -1.0
        grams[13, 0, 1] += 1e-3

    def loop():
        for g in grams:
            Metric(g)
    want = _raised(loop)
    assert want == (MetricError, f"gram must be {bad}")
    assert _raised(Metric, grams) == want
    assert _raised(Metric, grams.reshape(4, 5, 4, 4)) == want
    grams[6] = grams[0]
    assert _raised(Metric, grams)[1] != want[1]


SMALL = [e for e in list_catalog() if e.build().n <= 7]


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.label)
def test_stacked_kernels_match_scalar_calls(entry):
    """Metric.from_factor of one uniform draw of shape (N, n, n) has the
    rows of N Metric.random calls on the same stream, and each row of
    frame_structure (with the metric's frame and with a stacked frame),
    ricci_frame (unweighted, with one weight tensor and with a stack of
    them) and ricci_form_matrix on the stack equals its scalar call."""
    alg = entry.build()
    n, count = alg.n, 5
    seed = sum(map(ord, entry.label))
    rng = np.random.default_rng(seed)
    singles = [Metric.random(n, rng) for _ in range(count)]
    stack = Metric.from_factor(np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(count, n, n)))
    frames = stack.frame[:, :, rng.permutation(n)]
    w = rng.uniform(size=(count, n, n, n))
    w = w + w.swapaxes(-3, -2)
    c, cf = frame_structure(alg, stack), frame_structure(alg, stack, frames)
    r, r1, rw = ricci_frame(c), ricci_frame(c, w[0]), ricci_frame(c, w)
    form = ricci_form_matrix(alg, stack)
    for i, single in enumerate(singles):
        assert _same_metric(stack[i], single)
        ci = frame_structure(alg, single)
        assert np.array_equal(c[i], ci)
        assert np.array_equal(cf[i], frame_structure(alg, single, frames[i]))
        assert np.array_equal(r[i], ricci_frame(ci))
        assert np.array_equal(r1[i], ricci_frame(ci, w[0]))
        assert np.array_equal(rw[i], ricci_frame(ci, w[i]))
        assert np.array_equal(form[i], ricci_form_matrix(alg, single))


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


def test_stacked_report_rows_are_their_single_reports():
    """A stack of frame matrices, frames and scales, one scale overflowed
    to inf, gives one report whose rows are the single reports to the
    bit; the operator, made when read, is NaN on the overflowed row."""
    rng = np.random.default_rng(4)
    r = rng.standard_normal((3, 4, 4))
    r[2, 0] = r[2, :, 0] = 0.0              # an exact-zero eigenvalue
    frames = rng.standard_normal((3, 4, 4))
    scales = np.array([1.0, 1e300, np.inf])
    with np.errstate(all="raise"):
        stacked = RicciReport.from_frame_matrix(r, frames, scales)
        ops = stacked.operator
    for i in range(3):
        with np.errstate(all="raise"):
            one = RicciReport.from_frame_matrix(r[i], frames[i], scales[i])
            op = one.operator
        for got, want in ((stacked.eigenvalues[i], one.eigenvalues),
                          (stacked.eigenvectors[i], one.eigenvectors),
                          (ops[i], op)):
            assert got.tobytes() == want.tobytes()
        assert stacked.min_simple[i] == one.min_simple
        assert stacked.max_simple[i] == one.max_simple
    assert np.isnan(ops[2]).all() and np.isfinite(ops[0]).all()
    assert 0.0 in stacked.eigenvalues[2]
