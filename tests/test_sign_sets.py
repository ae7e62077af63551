"""Metric-independent curvature-sign sets: vector/plane labels, the
deformation expansion of sectional curvature, and witness searches."""

import itertools

import numpy as np
import pytest

from nilcurv import (
    DeformationSpec,
    Metric,
    NilpotentAlgebra,
    Subspace,
    build,
    classify_plane,
    classify_ric_vector,
    find_negative_K_witness,
    find_negative_ric_witness,
    find_positive_ric_witness,
    list_catalog,
    secdef_coefficients,
    sectional_K,
)
from nilcurv import sign_sets
from nilcurv.curvature import frame_structure, ricci_form_matrix, ricci_frame
from nilcurv.deformation import deformed_metric
from nilcurv.rational import nullspace, rank, solve
from nilcurv.sign_sets import (
    PreconditionError,
    _scaled_ric_ladder,
    plane_labels,
)
from nilcurv.verify import _grid_planes
from test_algebra import in_basis, unimodular


X3, Y3, Z3 = np.eye(3)


def test_classify_ric_vector_h3():
    a = build("heisenberg", m=1)
    assert classify_ric_vector(a, Z3) == "g_pos"
    assert classify_ric_vector(a, X3) == "outside"
    assert classify_ric_vector(a, [0, 0, 0]) == "g_zero_trivial"


def test_classify_ric_vector_central_not_derived():
    a = build("heisenberg_x_abelian", l=1, pad=1)
    pad_dir = np.eye(4)[:, 3]
    assert classify_ric_vector(a, pad_dir) == "g_geq_only"


def test_classify_plane_h3():
    a = build("heisenberg", m=1)
    # non-abelian plane: no labels at all
    assert classify_plane(a, X3, Y3) == set()
    # plane through the center: G1, hence G_geq
    labels = classify_plane(a, X3, Z3)
    assert "G1" in labels and "G_geq" in labels
    with pytest.raises(PreconditionError):
        classify_plane(a, X3, 2.0 * X3)


def test_central_plane_is_G_zero():
    a = build("heisenberg_x_abelian", l=1, pad=1)
    z1 = np.eye(4)[:, 2]
    z2 = np.eye(4)[:, 3]
    labels = classify_plane(a, z1, z2)
    assert "G_zero" in labels and "G_geq" in labels


def test_pencil_condition_matches_random_probes():
    """The exact G_geq label agrees with a numeric oracle on random
    abelian planes (y drawn from the centralizer of x): the stacked
    bracket images [x, Z], [y, Z] have rank <= 1 for 30 random Z."""
    rng = np.random.default_rng(0)
    for key in ("heisenberg", "filiform4", "L5_lemma7a"):
        a = build(key, m=2) if key == "heisenberg" else build(key)
        for _ in range(15):
            x = [int(v) for v in rng.integers(-2, 3, a.n)]
            centralizer = nullspace(a.ad(x), a.n)
            coeffs = rng.integers(-2, 3, len(centralizer))
            y = [sum(int(r) * row[j] for r, row in zip(coeffs, centralizer))
                 for j in range(a.n)]
            if np.linalg.matrix_rank(np.array([x, y], float)) != 2:
                continue
            exact = "G_geq" in classify_plane(a, x, y)
            assert a.bracket(x, y) == [0] * a.n
            ok = True
            for _ in range(30):
                z = rng.uniform(-1, 1, a.n)
                m = np.stack([a.bracket_float(x, z),
                              a.bracket_float(np.array(y, float), z)])
                if np.linalg.matrix_rank(m, tol=1e-8) > 1:
                    ok = False
                    break
            assert exact == ok


def test_G2_on_plane_meeting_center():
    """h3 x A1: span(e1, e3) lies in the abelian ideal span(e1, e3, e4),
    whose bracket with the algebra is R e3."""
    a = build("heisenberg_x_abelian", l=1, pad=1)
    e = np.eye(4)
    assert classify_plane(a, e[0], e[2]) == {"G1", "G2", "G_geq", "G_pos"}
    assert classify_plane(a, e[0], e[3]) == {"G1", "G2", "G_geq"}


def test_classify_plane_accepts_numpy_integer_vectors():
    a = build("heisenberg_x_abelian", l=1, pad=1)
    e = np.eye(4, dtype=int)
    assert classify_plane(a, e[0], e[2]) == classify_plane(
        a, [1, 0, 0, 0], [0, 0, 1, 0])


def test_G2_central_plane_does_not_depend_on_dimension():
    """span(e3, e4) is central in h3 x A_k and lies in the G2 ideal
    span(e1, e3, e4) for every k, n = 8 included."""
    for pad in (4, 5):
        a = build("heisenberg_x_abelian", l=1, pad=pad)
        e = np.eye(a.n)
        assert "G2" in classify_plane(a, e[2], e[3]), a.name


@pytest.mark.parametrize("c, g2", [(2, True), (-1, False)])
def test_G2_central_plane_extension_direction(c, g2):
    """[e1,e3]=e5, [e2,e3]=e6, [e1,e4]=c e6, [e2,e4]=e5: im ad_v for
    v = e1 + s e2 is a line iff s^2 = c, so the center span(e5, e6) is G2
    through v = e1 + sqrt(2) e2 at c = 2 and has no real direction at
    c = -1."""
    a = NilpotentAlgebra(6, {(0, 2): {4: 1}, (1, 2): {5: 1},
                             (0, 3): {5: c}, (1, 3): {4: 1}})
    assert a.center() == Subspace([[0, 0, 0, 0, 1, 0],
                                   [0, 0, 0, 0, 0, 1]], 6)
    e = np.eye(6)
    assert ("G2" in classify_plane(a, e[4], e[5])) == g2
    if g2:
        v = e[0] + np.sqrt(2.0) * e[1]
        images = np.array([a.bracket_float(v, w) for w in e])
        assert np.linalg.matrix_rank(images, tol=1e-12) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_plane_is_basis_independent(seed):
    """The labels of a plane do not change in a unimodular change of
    basis: random planes, planes through a central vector and planes
    inside the center, on every catalog algebra with n <= 6."""
    rng = np.random.default_rng(seed)
    for entry in list_catalog():
        a = entry.build()
        if a.n > 6:
            continue
        p = unimodular(a.n, seed)
        b = in_basis(a, p)
        z = [[int(v) for v in row] for row in a.center().basis]
        planes = [rng.integers(-1, 2, (2, a.n)).tolist() for _ in range(6)]
        planes += [[(rng.integers(1, 3, len(z)) @ np.array(z)).tolist(),
                    rng.integers(-1, 2, a.n).tolist()] for _ in range(4)]
        if len(z) >= 2:
            planes += [z[:2], (rng.integers(-2, 3, (2, len(z)))
                               @ np.array(z)).tolist()]
        for x, y in planes:
            if np.linalg.matrix_rank(np.array([x, y])) < 2:
                continue
            assert classify_plane(a, x, y) == classify_plane(
                b, solve(p, x), solve(p, y)), (entry.label, x, y)


def test_secdef_matches_deformed_sectional():
    """The (Psi, Phi) expansion reproduces K of the deformed metric."""
    alg = build("filiform_standard", n=5)
    rng = np.random.default_rng(3)
    metric = Metric.random(5, rng)
    lam = np.array([2.0, 1.0, 0.0, -1.0, -0.5])
    x, y = rng.uniform(-1, 1, (2, 5))
    co = secdef_coefficients(alg, metric, lam, x, y)
    finv = np.linalg.inv(metric.frame)
    for t in (0.0, 0.3, 1.0):
        gram_t = finv.T @ np.diag(np.exp(lam * t)) @ finv
        k = sectional_K(alg, Metric(gram_t), x, y)
        assert abs(co["evaluate"](t) - k) < 1e-9 * (1.0 + abs(k))


def _secdef_reference(algebra, metric, x, y, f):
    """Psi and Phi from scalar brackets: mu[i][j](U, V) =
    <U, e_j><e_j, [e_i, V]> over the g-orthonormal frame columns e_i."""
    n, g = algebra.n, metric.gram

    def mu(i, j, u, v):
        ej = f[:, j]
        return float(u @ g @ ej) * float(
            ej @ g @ algebra.bracket_float(f[:, i], v))

    mu_xy, mu_yx, mu_xx, mu_yy = (
        np.array([[mu(i, j, u, v) for j in range(n)] for i in range(n)])
        for u, v in ((x, y), (y, x), (x, x), (y, y)))
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
    return psi, phi


def test_secdef_matches_scalar_reference():
    """The frame-structure tables equal the scalar-bracket ones, in the
    metric frame and in a rotated orthonormal frame, on every catalog
    algebra."""
    rng = np.random.default_rng(7)
    for entry in list_catalog():
        a = entry.build()
        metric = Metric.random(a.n, rng)
        lam = rng.uniform(-1.0, 1.0, size=a.n)
        x, y = rng.uniform(-1.0, 1.0, (2, a.n))
        rotation = np.linalg.qr(rng.normal(size=(a.n, a.n)))[0]
        for frame in (None, metric.frame @ rotation):
            co = secdef_coefficients(a, metric, lam, x, y, frame)
            f = metric.frame if frame is None else frame
            for got, want in zip((co["Psi"], co["Phi"]),
                                 _secdef_reference(a, metric, x, y, f)):
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-12 * scale, \
                    entry.label


def test_scaled_ric_matches_deformed_metric():
    """The scaled witness value is exp(-d t) Ric_t(e_idx, e_idx), with
    Ric_t from the Gram matrix of g_t, at moderate t."""
    rng = np.random.default_rng(12)
    for entry in list_catalog():
        a = entry.build()
        if a.is_abelian():
            continue
        metric = Metric.random(a.n, rng)
        lam = rng.uniform(-1.0, 1.0, size=a.n)
        spec = DeformationSpec(base=metric, lambdas=lam)
        for t in (0.5, 1.0, 2.0):
            r = ricci_form_matrix(a, deformed_metric(spec, t))
            for idx in range(a.n):
                val, d = _scaled_ric_ladder(a, metric, metric.frame, lam,
                                            idx)(t)
                e = metric.frame[:, idx]
                want = np.exp(-d * t) * float(e @ r @ e)
                assert abs(val - want) < 1e-9 * (1.0 + abs(want)), \
                    (a.name, t, idx)


def _scaled_ric_per_t(algebra, metric, frame, lam, t, idx):
    """The scaled Ricci value with every step redone at one t."""
    c = frame_structure(algebra, metric, frame)
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


def test_scaled_ric_ladder_is_bitwise_the_per_t_value():
    """At every t of both witness ladders, with the exponent patterns of
    both witness searches and a random one, on every non-abelian catalog
    algebra."""
    rng = np.random.default_rng(16)
    ts = [2.0 ** k for k in range(8)]       # 1 .. 128
    for entry in list_catalog():
        a = entry.build()
        if a.is_abelian():
            continue
        n = a.n
        metric = Metric.random(n, rng)
        positive = np.concatenate([[float(n)],
                                   np.arange(n - 2, 1, -1, dtype=float),
                                   [1.0, 0.0]])
        negative = np.zeros(n)
        negative[1], negative[-1] = 1.0, -1.0
        for lam in (positive, negative, rng.uniform(-1.0, 1.0, size=n)):
            for idx in range(n):
                ladder = _scaled_ric_ladder(a, metric, metric.frame, lam, idx)
                for t in ts:
                    want = _scaled_ric_per_t(a, metric, metric.frame, lam, t,
                                             idx)
                    assert ladder(t) == want, (a.name, lam, idx, t)


def _rref_basis(algebra, x, y):
    """The RREF basis (X, Y) of span(x, y), as floats."""
    return np.array(Subspace([x, y], algebra.n).basis, dtype=float)


def test_knonneg_value():
    """K is nonnegative on the RREF basis of a G_geq plane of h3; a plane
    with a nonzero bracket is not G_geq."""
    a = build("heisenberg", m=1)
    assert "G_geq" in classify_plane(a, X3, Z3)
    assert sectional_K(a, Metric.identity(3),
                       *_rref_basis(a, X3, Z3)) >= 0.0
    assert "G_geq" not in classify_plane(a, X3, Y3)


def _knonneg_reference(algebra, metric, x, y):
    """(1/4) sum_i (<X,[e_i,Y]> - <Y,[e_i,X]>)^2 over the g-orthonormal
    frame e_i, with (X, Y) the RREF basis of span(x, y)."""
    bx, by = _rref_basis(algebra, x, y)
    g = metric.gram
    total = 0.0
    for ei in metric.frame.T:
        term = (float(bx @ g @ algebra.bracket_float(ei, by))
                - float(by @ g @ algebra.bracket_float(ei, bx)))
        total += term * term
    return 0.25 * total


def test_knonneg_value_matches_frame_sum():
    """On seeded G_geq planes of every catalog algebra with n <= 6 (sparse
    random planes that happen to be G_geq, and planes through a central
    vector), K on the RREF basis equals the frame sum."""
    rng = np.random.default_rng(0)
    for entry in list_catalog():
        a = entry.build()
        if a.n > 6:
            continue
        z = np.array(a.center().basis, dtype=float)
        planes = [rng.integers(-1, 2, (2, a.n)).astype(float)
                  for _ in range(30)]
        planes += [np.stack([rng.integers(1, 3, len(z)) @ z,
                             rng.integers(-1, 2, a.n)]).astype(float)
                   for _ in range(3)]
        checked = 0
        for x, y in planes:
            if np.linalg.matrix_rank(np.stack([x, y])) < 2 \
                    or "G_geq" not in classify_plane(a, x, y):
                continue
            metric = Metric.random(a.n, rng)
            want = _knonneg_reference(a, metric, x, y)
            got = sectional_K(a, metric, *_rref_basis(a, x, y))
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-15, a.name
            checked += 1
        assert checked > 0, a.name


def test_positive_ric_witness_central_derived():
    a = build("heisenberg", m=2)
    z = np.eye(5)[:, 4]
    w = find_positive_ric_witness(a, z)
    assert w.kind == "ric_positive" and w.value > 1e-12
    assert z @ ricci_form_matrix(a, Metric(w.gram)) @ z > 1e-12


def test_positive_ric_witness_central_not_derived_uses_deformation():
    a = build("heisenberg_x_abelian", l=1, pad=1)
    pad_dir = np.eye(4)[:, 3]
    w = find_positive_ric_witness(a, pad_dir)
    assert w.value > 1e-12
    if w.scaled_value is not None:
        rel = abs(w.scaled_value - w.scaled_target) \
            / max(abs(w.scaled_target), 1e-30)
        assert rel < 0.05


def test_negative_ric_witness():
    a = build("filiform4")
    x = np.eye(4)[:, 0]   # W is not central
    w = find_negative_ric_witness(a, x)
    assert w.kind == "ric_negative" and w.value < -1e-12
    assert x @ ricci_form_matrix(a, Metric(w.gram)) @ x < -1e-12


def test_negative_K_witness_nonabelian_plane():
    a = build("heisenberg", m=1)
    w = find_negative_K_witness(a, X3, Y3)
    assert w.kind == "K_negative" and w.value < -1e-9
    if w.frame is None and w.t is None:
        assert sectional_K(a, Metric(w.gram), X3, Y3) < -1e-9


def test_negative_K_witness_abelian_plane_without_pencil():
    """Abelian plane failing the pencil condition still gets a witness
    (via the adapted deformation recipe)."""
    a = build("filiform_standard", n=5)
    x = np.array([0.0, 1.0, -1.0, 1.0, -1.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    labels = classify_plane(a, x, y)
    assert "G_geq" not in labels
    w = find_negative_K_witness(a, x, y)
    assert w.value < -1e-9


def test_pencil_witness_is_K_of_its_deformed_metric():
    """Re-check of the pencil-failure witness without the expansion
    tables: sectional_K on the deformed Gram matrix at the witness t
    gives the witness value."""
    a = build("filiform_standard", n=5)
    x = np.array([0.0, 1.0, -1.0, 1.0, -1.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    w = find_negative_K_witness(a, x, y)
    assert w.lambdas is not None and w.lambdas[-1] == 0.0
    k = sectional_K(a, deformed_metric(w.spec(), w.t), x, y)
    assert abs(k - w.value) <= 1e-12 * (1.0 + abs(w.value))


@pytest.mark.parametrize("key", ["filiform4", "L5_lemma7a"])
def test_pencil_witness_deforms_along_first_exact_e(key):
    """On every abelian {-1,0,1} plane outside G_geq, the last frame column
    of the pencil witness is parallel to the first e_i, else the first
    e_i + e_j in combinations order, at which [e, x] and [e, y] have
    rank 2 over Q."""
    a = build(key)
    n = a.n
    eye = np.eye(n, dtype=int)
    pool = [eye[i] for i in range(n)] + [
        eye[i] + eye[j] for i, j in itertools.combinations(range(n), 2)]
    grid = np.array(_grid_planes(n))
    xs, ys = grid[:, 0], grid[:, 1]
    labels = plane_labels(a, xs, ys)
    planes = np.nonzero(labels["abelian"] & ~labels["G_geq"])[0]
    assert len(planes) > 0
    for i in planes:
        x, y = [int(v) for v in xs[i]], [int(v) for v in ys[i]]
        e = next(u for u in pool
                 if rank([a.bracket(list(u), x), a.bracket(list(u), y)]) == 2)
        w = sign_sets._pencil_failure_witness(a, xs[i].astype(float),
                                              ys[i].astype(float))
        col = w.frame[:, -1]
        unit = e / np.linalg.norm(e)
        assert np.linalg.norm(col - (col @ unit) * unit) \
            <= 1e-12 * np.linalg.norm(col)


def test_witnesses_need_no_random_stage(monkeypatch):
    """Every witness is constructed: with Metric.random and
    np.random.default_rng made to raise, there is a negative Ricci witness
    for every non-central e_i and e_i + e_j, a positive one for every e_i
    and e_i + e_j, and a negative K witness for every {-1,0,1} plane
    outside G_geq when n <= 4, and for a seeded sample of 30 of them per
    algebra when n = 5, 6."""
    rng = np.random.default_rng(0)
    cases = {}
    for entry in list_catalog():
        a = entry.build()
        if a.is_abelian() or a.name in cases:
            continue
        e = np.eye(a.n)
        vectors = [e[i] for i in range(a.n)] + [
            e[i] + e[j] for i, j in itertools.combinations(range(a.n), 2)]
        planes = []
        if a.n <= 6:
            grid = np.array(_grid_planes(a.n))
            xs, ys = grid[:, 0], grid[:, 1]
            outside = np.nonzero(~plane_labels(a, xs, ys)["G_geq"])[0]
            if a.n > 4:
                outside = rng.choice(outside, size=30, replace=False)
            planes = [(xs[i].astype(float), ys[i].astype(float))
                      for i in outside]
        cases[a.name] = (a, vectors, planes)

    def random_stage(*args, **kwargs):
        raise AssertionError("a witness reached a random stage")

    monkeypatch.setattr(Metric, "random", random_stage)
    monkeypatch.setattr(sign_sets.np.random, "default_rng", random_stage)
    for a, vectors, planes in cases.values():
        center = a.center()
        for v in vectors:
            if not center.contains([int(t) for t in v]):
                assert find_negative_ric_witness(a, v).value < -1e-9
            assert find_positive_ric_witness(a, v).value > 1e-9
        for x, y in planes:
            assert find_negative_K_witness(a, x, y).value < -1e-9
