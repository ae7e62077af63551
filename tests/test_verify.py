"""Bulk kernels behind the sectional-sign-planes check: the plane grid,
the exact int64 plane labels and the batched sectional curvature, each
against the exact or scalar construction it replaces."""

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
    u_operator,
)
from nilcurv.rational import rref
from nilcurv.verify import (
    _grid_planes,
    _integer_tensor,
    _meets_center,
    _plane_labels,
)

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


@pytest.mark.parametrize("alg", SMALL, ids=lambda a: a.name)
def test_bulk_labels_agree_with_classify_plane(alg):
    planes, xs, ys = _grid(alg.n)
    labels = _plane_labels(_integer_tensor(alg), xs, ys)
    assert np.array_equal(labels["G1"], _meets_center(alg, xs, ys))
    abelian = np.nonzero(labels["abelian"])[0]
    if alg.n >= 5:
        # seeded sample, half of it from the non-central planes, where G2
        # is decided by the bulk labels
        rng = np.random.default_rng(len(planes) + len(abelian))
        sample = []
        for part in (abelian[~labels["G1"][abelian]],
                     abelian[labels["G1"][abelian]]):
            sample += list(rng.choice(part, size=min(15, len(part)),
                                      replace=False))
        abelian = sample
    for i in abelian:
        exact = classify_plane(alg, list(map(Fraction, planes[i][0])),
                               list(map(Fraction, planes[i][1])))
        assert labels["G_geq"][i] == ("G_geq" in exact), planes[i]
        assert labels["G1"][i] == ("G1" in exact), planes[i]
        assert (labels["G1"][i] or labels["G2"][i]) \
            == bool({"G1", "G2"} & exact), planes[i]


def test_bulk_labels_on_heisenberg3():
    alg = next(a for a in SMALL if a.name == "heisenberg3")
    xs = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    ys = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 1]], dtype=np.int64)
    labels = _plane_labels(_integer_tensor(alg), xs, ys)
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
