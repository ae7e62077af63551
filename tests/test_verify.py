"""Bulk kernels behind the sectional-sign-planes check: the plane grid,
the exact plane labels and the batched sectional curvature, each against
the exact, brute-force or scalar construction it replaces."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from nilcurv import (
    Metric,
    classify_plane,
    curvature,
    list_catalog,
    sectional_K,
)
from nilcurv.rational import rank, rref
from nilcurv.sign_sets import plane_labels
from nilcurv.verify import _grid_planes, _meets_center
from test_curvature import u_operator

SMALL = [e.build() for e in list_catalog() if e.build().n <= 6]


def _rref_grid_planes(n):
    """The plane grid built by Fraction rref of every pair of directions."""
    vecs = []
    for v in itertools.product((-1, 0, 1), repeat=n):
        if not any(v):
            continue
        first = next(x for x in v if x)
        canon = v if first > 0 else tuple(-x for x in v)
        if canon not in vecs:
            vecs.append(canon)
    planes = {}
    for a, b in itertools.combinations(vecs, 2):
        red = rref([list(map(Fraction, a)), list(map(Fraction, b))])
        if len(red) == 2:
            planes.setdefault(tuple(tuple(r) for r in red), (a, b))
    return tuple(planes.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_planes_match_rref_construction(n):
    got = _grid_planes(n)
    want = _rref_grid_planes(n)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def _grid(n):
    planes = _grid_planes(n)
    xs = np.array([p[0] for p in planes], dtype=np.int64)
    ys = np.array([p[1] for p in planes], dtype=np.int64)
    return planes, xs, ys


def _g2_by_search(alg, x, y) -> bool:
    """G2 from its definition, searched: some a3 = span(x, y, v) with v in
    {-1,0,1}^n is a three-dimensional abelian ideal and [g, a3] is a
    line."""
    c = np.rint(alg.structure_tensor()).astype(np.int64)
    vs = np.array(list(itertools.product((-1, 0, 1), repeat=alg.n)))
    # images[v] stacks [e_m, w] for w = x, y, v
    images = np.concatenate(
        [np.broadcast_to(np.einsum("j,mjk->mk", w, c),
                         (len(vs), alg.n, alg.n))
         for w in (x, y)] + [np.einsum("vj,mjk->vmk", vs, c)], axis=1)
    p = images[np.arange(len(vs)),
               np.argmax(np.any(images, axis=2), axis=1)]
    line = np.any(p, axis=1) & np.all(
        np.sum(images * images, axis=2) * np.sum(p * p, axis=1)[:, None]
        == np.sum(images * p[:, None, :], axis=2) ** 2, axis=1)
    for v, q in zip(vs[line], p[line]):
        a3 = [list(map(Fraction, w)) for w in (x, y, v)]
        if rank(a3) == 3 and rank(a3 + [list(map(Fraction, q))]) == 3 \
                and not any(alg.bracket(a3[2], w) != [0] * alg.n
                            for w in a3[:2]):
            return True
    return False


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_bulk_labels_agree_with_classify_plane(alg):
    """G1 of the bulk labels against the center basis, and classify_plane
    against the bulk labels and G2 against a brute search of its
    definition, on a seeded sample of the abelian grid planes that meet
    the center and of those that miss it."""
    planes, xs, ys = _grid(alg.n)
    labels = plane_labels(alg, xs, ys)
    assert np.array_equal(labels["G1"], _meets_center(alg, xs, ys))
    abelian = np.nonzero(labels["abelian"])[0]
    rng = np.random.default_rng(len(planes) + len(abelian))
    for part in (abelian[~labels["G1"][abelian]],
                 abelian[labels["G1"][abelian]]):
        for i in rng.choice(part, size=min(25, len(part)), replace=False):
            x, y = planes[i]
            exact = classify_plane(alg, list(x), list(y))
            assert labels["G_geq"][i] == ("G_geq" in exact), planes[i]
            assert labels["G1"][i] == ("G1" in exact), planes[i]
            assert ("G2" in exact) == _g2_by_search(alg, x, y), planes[i]


@pytest.mark.parametrize("alg", [a for a in SMALL if a.n <= 5],
                         ids=lambda a: a.name)
def test_plane_labels_int64_and_python_int_agree(alg):
    """Scaling a spanning vector changes no label; scaled by 7 the labels
    stay in int64, scaled by 10^13 they are computed in Python ints."""
    _, xs, ys = _grid(alg.n)
    want = plane_labels(alg, xs, ys)
    for factor in (7, 10 ** 13):
        got = plane_labels(alg, xs.astype(object) * factor, ys)
        for name in want:
            assert np.array_equal(got[name], want[name]), (factor, name)


def test_bulk_labels_on_heisenberg3():
    alg = next(a for a in SMALL if a.name == "heisenberg3")
    xs = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    ys = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 1]], dtype=np.int64)
    labels = plane_labels(alg, xs, ys)
    assert labels["abelian"].tolist() == [False, True, False]
    assert labels["G1"].tolist() == [False, True, False]
    assert labels["G_geq"].tolist() == [False, True, False]


def _reference_K(alg, metric, x, y):
    """K(x, y) term by term from the U-operator and the brackets."""
    uxy = u_operator(alg, metric, x, y)
    uxx = u_operator(alg, metric, x, x)
    uyy = u_operator(alg, metric, y, y)
    bxy = alg.bracket_float(x, y)
    return (metric.norm2(uxy) - metric.inner(uxx, uyy)
            - 0.75 * metric.norm2(bxy)
            - 0.5 * metric.inner(alg.bracket_float(x, bxy), y)
            - 0.5 * metric.inner(alg.bracket_float(y, -bxy), x))


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_batch_K_matches_scalar_sectional_K(alg, monkeypatch):
    monkeypatch.setattr(curvature, "_CHUNK", 16)    # several blocks per call
    rng = np.random.default_rng(alg.n)
    _, xs, ys = _grid(alg.n)
    pick = rng.choice(len(xs), size=min(60, len(xs)), replace=False)
    xs, ys = xs[pick].astype(float), ys[pick].astype(float)
    for _ in range(3):
        metric = Metric.random(alg.n, rng)
        got = sectional_K(alg, metric, xs, ys)
        want = np.array([_reference_K(alg, metric, x, y)
                         for x, y in zip(xs, ys)])
        scale = np.abs(want).max() + 1.0
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10 * scale)
        one = sectional_K(alg, metric, xs[0], ys[0])
        assert isinstance(one, float)
        assert abs(one - want[0]) <= 1e-8 * abs(want[0]) + 1e-10 * scale
