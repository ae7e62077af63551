"""Metric-independent curvature-sign sets: vector/plane labels, the
deformation expansion of sectional curvature, and witness searches."""

import dataclasses
import itertools

import numpy as np
import pytest
import sympy

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
from nilcurv import rational, sign_sets
from nilcurv.algebra import basis_vector, exact_vector
from nilcurv.curvature import (
    MetricError,
    frame_structure,
    ricci_form_matrix,
    ricci_frame,
)
from nilcurv.deformation import deformed_metric
from nilcurv.rational import nullspace, rank, solve
from nilcurv.sign_sets import (
    K_NEGATIVE_MAX,
    PreconditionError,
    WitnessSearchError,
    _scaled_ric_ladder,
    adapted_metric_family,
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
def _sympy_pencil_gcd(a, b, k):
    """Reference: the gcd of the k x k minors of A - tB, by sympy."""
    t = sympy.Symbol("t")
    pencil = sympy.Matrix(a) - t * sympy.Matrix(b)
    gcd = sympy.Poly(0, t)
    for sel in itertools.combinations(range(len(a)), k):
        gcd = gcd.gcd(sympy.Poly(pencil[list(sel), :].det(), t))
    return gcd


def _sympy_central_plane_g2(algebra, sigma, z):
    """Reference: the G2 test of a central plane in Fractions, its pencil
    decided by sympy: W = {v : [g, v] in sigma} from the ad-matrices, the
    sigma-coordinates of [u_i, e_m], and the real roots of the gcd."""
    n = algebra.n
    ann = nullspace(sigma.basis, n)
    rows = [[sum(f[k] * ad[k][j] for k in range(n)) for j in range(n)]
            for ad in (algebra.ad(basis_vector(n, m)) for m in range(n))
            for f in ann]
    us, span = [], z
    for v in nullspace(rows, n):
        if not span.contains(v):
            us.append(v)
            span = span.sum(Subspace([v], n))
    k = len(us)
    ab = [[sigma.coordinates(algebra.bracket(u, basis_vector(n, m)))
           for u in us] for m in range(n)]
    a, b = ([[c[i] for c in row] for row in ab] for i in (0, 1))
    if k <= 1:
        return k == 1 and rank([[r[0] for r in a], [r[0] for r in b]]) == 1
    if rank(b) < k:
        return True
    return _sympy_pencil_gcd(a, b, k).count_roots() > 0


def _random_pencils(rng, count):
    """Integer n x k pencils with rank B = k: half of them drawn entry by
    entry, half as S (A0 - t B0) so that their minors share the factor
    det(A0 - t B0)."""
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k, 6))
        if len(out) % 2:
            s = rng.integers(-2, 3, size=(n, k))
            a0, b0 = rng.integers(-3, 4, size=(2, k, k))
            a, b = s @ a0, s @ b0
        else:
            a, b = rng.integers(-3, 4, size=(2, n, k))
        if rank(b.tolist()) == k:
            out.append((a.tolist(), b.tolist(), k))
    return out


def test_pencil_gcd_and_real_roots_match_sympy():
    """The integer minors, their primitive-PRS gcd and its Sturm count of
    real roots against sympy on random integer pencils, common factors
    and multiple roots included."""
    t = sympy.Symbol("t")
    counts = set()
    for a, b, k in _random_pencils(np.random.default_rng(5), 50):
        minors = list(sign_sets._pencil_minors(a, b, k))
        gcd = minors[0]
        for m in minors[1:]:
            gcd = sign_sets._upoly_gcd(gcd, m)
        ref = _sympy_pencil_gcd(a, b, k)
        assert sympy.Poly(gcd[::-1], t).monic() == ref.monic()
        count = sign_sets._real_root_count(gcd)
        assert count == ref.count_roots()
        counts.add(count)
    assert counts >= {0, 1, 2}
    for p in ([-1, 0, 1], [1, 0, 1], [1, -2, 1], [0, 0, 0, 1], [-6, 11, -6, 1],
              [4]):
        ref = sympy.Poly(p[::-1], t)
        assert sign_sets._real_root_count(p) == ref.count_roots(), p


def _two_step_central_plane_algebras(rng, count):
    """Two-step algebras on x1..x4, z1, z2 with [x_i, x_j] = w1_ij z1 +
    w2_ij z2 for random integer skew forms, and h3 + h3 and the complex
    Heisenberg algebra as a real one, so that the central plane
    span(z1, z2) leaves a pencil of 4 x 4 skew matrices."""
    algebras = [
        NilpotentAlgebra(6, {(0, 1): {4: 1}, (2, 3): {5: 1}}, name="h3+h3"),
        NilpotentAlgebra(6, {(0, 2): {4: 1}, (1, 3): {4: -1},
                             (0, 3): {5: 1}, (1, 2): {5: 1}},
                         name="complex h3")]
    pairs = list(itertools.combinations(range(4), 2))
    while len(algebras) < count:
        w = rng.integers(-2, 3, size=(2, len(pairs)))
        brackets = {p: {4 + s: int(w[s, i]) for s in (0, 1) if w[s, i]}
                    for i, p in enumerate(pairs)}
        algebras.append(NilpotentAlgebra(6, brackets, name="random"))
    return algebras


def test_central_plane_g2_matches_the_sympy_reference(monkeypatch):
    """The integer G2 test of a central plane against its Fraction and
    sympy reference, on planes of which most reach the pencil gcd."""
    reached = []
    count_roots = sign_sets._real_root_count
    monkeypatch.setattr(sign_sets, "_real_root_count",
                        lambda p: reached.append(1) or count_roots(p))
    verdicts = set()
    e = np.eye(6, dtype=int)
    for a in _two_step_central_plane_algebras(np.random.default_rng(7), 16):
        z = a.center()
        sigma = Subspace([e[4], e[5]], 6)
        if not z.contains_subspace(sigma):
            continue
        got = sign_sets._central_plane_g2(a, sigma, z)
        assert got == _sympy_central_plane_g2(a, sigma, z), a.brackets
        verdicts.add(got)
    assert verdicts == {True, False} and len(reached) >= 10
    assert "G2" in classify_plane(_two_step_central_plane_algebras(
        None, 2)[0], e[4], e[5])
    assert "G2" not in classify_plane(_two_step_central_plane_algebras(
        None, 2)[1], e[4], e[5])


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


def _witness_bits(w):
    """Every field of a witness, each float array or number as its
    bytes, so equal bits are equal witnesses."""
    return [(f.name, v if v is None or isinstance(v, str)
             else np.asarray(v, float).tobytes())
            for f, v in ((f, getattr(w, f.name))
                         for f in dataclasses.fields(w))]


def _ric_targets(algebra, rng):
    """Targets that reach every branch of both Ricci witness searches: the
    zero vector, the basis vectors, the center's basis, integer vectors
    in {-3..3}^n, a short vector, and two rows whose entries span nine
    decades, whose adapted bases are too close to dependent on most
    algebras."""
    n = algebra.n
    rows = [np.zeros(n), *np.eye(n),
            *np.array(algebra.center().basis, dtype=float).reshape(-1, n),
            *rng.integers(-3, 4, size=(6, n)).astype(float),
            1e-10 * np.eye(n)[0],
            np.array([2.0 ** -30, 1e-9] + [1.0] * (n - 2)),
            np.array([1.0] + [1e-9] * (n - 1))]
    return np.array(rows)


@pytest.mark.parametrize("search", [find_positive_ric_witness,
                                    find_negative_ric_witness])
def test_stacked_ric_witness_rows_are_their_single_calls(search):
    """On every catalog algebra, each row of one stacked search is bit for
    bit the witness of its single call, or the exception class and
    message that the single call raises."""
    rng = np.random.default_rng(25)
    seen = set()
    for entry in list_catalog():
        a = entry.build()
        targets = _ric_targets(a, rng)
        results = search(a, targets)
        assert len(results) == len(targets)
        for z, got in zip(targets, results):
            seen.add(type(got).__name__)
            if isinstance(got, Exception):
                with pytest.raises(type(got)) as raised:
                    search(a, z)
                assert type(raised.value) is type(got)
                assert str(raised.value) == str(got), (a.name, z)
            else:
                assert _witness_bits(search(a, z)) == _witness_bits(got), \
                    (a.name, z)
    assert seen == {"SignWitness", "PreconditionError", "WitnessSearchError"}


def test_stacked_rows_keep_their_own_errors():
    """A stage that raises on one row of a stack is redone row by row:
    the other rows keep their results, and the failing row gets its
    error as a WitnessSearchError."""
    def stage(v):
        if (v < 0).any():
            raise MetricError("gram must be positive definite")
        return list(v[:, 0])
    out = sign_sets._by_rows(stage, np.array([[1.0], [-1.0], [2.0]]))
    assert out[0] == 1.0 and out[2] == 2.0
    assert type(out[1]) is WitnessSearchError
    assert str(out[1]) == "adapted basis: gram must be positive definite"


def test_witness_searches_do_not_depend_on_the_scale_of_the_target():
    """A target and its multiples by powers of two get the same witness,
    the one of the multiple with max |entry| in [1, 2), while exact_vector
    reads the multiples exactly (denominators up to 2^32)."""
    a = build("filiform_standard", n=5)
    x = np.array([1.0, 0.5, 0.0, -1.5, 0.25])
    y = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    for k in (-30, -1, 1, 30):
        assert _witness_bits(find_negative_ric_witness(a, np.ldexp(x, k))) \
            == _witness_bits(find_negative_ric_witness(a, x))
        assert _witness_bits(find_positive_ric_witness(a, np.ldexp(x, k))) \
            == _witness_bits(find_positive_ric_witness(a, x))
        assert _witness_bits(find_negative_K_witness(
            a, np.ldexp(x, k), np.ldexp(y, -k))) \
            == _witness_bits(find_negative_K_witness(a, x, y))


def _independent_pair_reference(algebra, z):
    """The bracket pair of the positive witness, decided by exact RREF
    ranks and a linear solve."""
    n = algebra.n
    for i, j in itertools.combinations(range(n), 2):
        x, y = basis_vector(n, i), basis_vector(n, j)
        b = algebra.bracket(x, y)
        if not any(b) or rank([z, b]) < 2:
            continue
        if rank([x, y, z]) != 3:
            a_c, b_c = solve([[x[k], y[k]] for k in range(n)], z)
            x = [xi + a_c * bi for xi, bi in zip(x, b)]
            y = [yi + b_c * bi for yi, bi in zip(y, b)]
            b = algebra.bracket(x, y)
            if not any(b) or rank([z, b]) < 2 or rank([x, y, z]) != 3:
                continue
        return x, y, b
    return None


def test_independent_pair_is_the_rank_construction(monkeypatch):
    """On every non-abelian catalog algebra, in the catalog basis and in
    a dense unimodular one, for every {-1,0,1} target with at most two
    nonzero entries (Z in span(e_i, e_j) is the case that moves the pair)
    and 30 integer ones, the pair read off the structure constants is the
    pair of the RREF construction, which tests the moved pair too, and no
    RREF runs."""
    rng = np.random.default_rng(5)
    cases = []
    for entry in list_catalog():
        a = entry.build()
        if a.is_abelian():
            continue
        n = a.n
        targets = [v for v in itertools.product((-1, 0, 1), repeat=n)
                   if 0 < np.count_nonzero(v) <= 2]
        targets += [v for v in rng.integers(-3, 4, size=(30, n)) if any(v)]
        for b in (a, in_basis(a, unimodular(n, 1))):
            for v in targets:
                z = exact_vector([int(t) for t in v])
                cases.append((b, z, _independent_pair_reference(b, z)))

    def no_rref(*args):
        raise AssertionError("rref called")
    monkeypatch.setattr(rational, "rref", no_rref)
    for a, z, want in cases:
        try:
            got = sign_sets._independent_pair_for(a, z)
        except WitnessSearchError:
            got = None
        assert got == want, (a.name, z)


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
    xs, ys = _grid_planes(n)
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


def _negative_K_witness_loop(algebra, x, y):
    """Reference: find_negative_K_witness with a Metric made anew from
    each Gram matrix of the adapted family."""
    for g in adapted_metric_family(algebra, x, y).gram:
        val = sectional_K(algebra, Metric(g), x, y)
        if val < K_NEGATIVE_MAX:
            return sign_sets.SignWitness(
                kind="K_negative", gram=g, value=val,
                target=[list(map(float, x)), list(map(float, y))])
    return sign_sets._pencil_failure_witness(algebra, x, y)


def _pencil_planes(key):
    """The abelian {-1,0,1} planes outside G_geq."""
    a = build(key)
    xs, ys = _grid_planes(a.n)
    labels = plane_labels(a, xs, ys)
    return a, [(xs[i].astype(float), ys[i].astype(float)) for i in
               np.nonzero(labels["abelian"] & ~labels["G_geq"])[0]]


@pytest.mark.parametrize("key", ["filiform4", "L5_lemma7a"])
def test_adapted_family_is_one_stack_factored_once(key, monkeypatch):
    """adapted_metric_family is one stacked Metric of 8n rows, each the
    Metric of its own Gram matrix, from a single Cholesky pass over the
    stack; find_negative_K_witness finds the witness of the loop over
    single metrics, and keeps a copy of its row."""
    a, planes = _pencil_planes(key)
    factored = []
    cholesky = np.linalg.cholesky

    def counted(m):
        factored.append(m.shape[:-2])
        return cholesky(m)
    for x, y in planes:
        factored.clear()
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        family = adapted_metric_family(a, x, y)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert factored == [(8 * a.n,)] and len(family) == 8 * a.n
        for row in family:
            single = Metric(row.gram)
            assert all(np.array_equal(getattr(row, k), getattr(single, k))
                       for k in ("gram", "frame", "_inv"))
        got, want = find_negative_K_witness(a, x, y), \
            _negative_K_witness_loop(a, x, y)
        assert got.gram.base is None
        assert np.array_equal(got.gram, want.gram)
        for k in ("kind", "value", "target", "t"):
            assert getattr(got, k) == getattr(want, k)
        for k in ("lambdas", "frame"):
            assert np.array_equal(getattr(got, k), getattr(want, k))


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
            xs, ys = _grid_planes(a.n)
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


@pytest.mark.parametrize("x, y, message", [
    ([1e-08, 1e-06, -1000.0, 0.0, 1e-08], [-1.0, 1e-08, -1e-08, -1000.0, 1.0],
     "adapted basis is numerically dependent"),
    ([1e-06, 1e-06, 1e-06, 1e-06, 10.0], [1e-06, -1.0, 10.0, -1000.0, -1.0],
     "adapted basis: gram must be positive definite"),
    ([3.0, 2.0 ** -30, 1e-06, 3.0, 3.0],
     [1000.0, 2.0 ** -30, 1.0, 1e-09, -1.0],
     "adapted basis: basis vectors are linearly dependent"),
])
def test_adapted_family_of_a_nearly_dependent_plane(x, y, message):
    """A plane whose entries span many decades, whose adapted basis
    complete_basis cannot complete or Metric.orthonormalizing rejects,
    raises WitnessSearchError, not a broadcast error or MetricError."""
    with pytest.raises(WitnessSearchError) as raised:
        adapted_metric_family(build("L52"), np.array(x), np.array(y))
    assert str(raised.value) == message
