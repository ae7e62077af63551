"""Exact rational linear algebra, cross-checked against numpy on random
integer matrices."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcurv.rational import (
    identity,
    in_row_space,
    nullspace,
    rank,
    rref,
    solve,
)

small_int = st.integers(min_value=-5, max_value=5)


def _matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_matches_numpy(rows):
    a = np.array(rows, dtype=float)
    assert rank(rows) == np.linalg.matrix_rank(a, tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_nullity(rows):
    ncols = len(rows[0])
    ns = nullspace(rows, ncols)
    assert rank(rows) + len(ns) == ncols
    for v in ns:
        assert all(sum(r[c] * v[c] for c in range(ncols)) == 0 for r in rows)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rref_idempotent_and_rank_preserving(rows):
    r1 = rref(rows)
    assert rref(r1) == r1
    assert rank(r1) == rank(rows)


@settings(max_examples=60, deadline=None)
@given(_matrices(max_rows=4, max_cols=4),
       st.lists(small_int, min_size=4, max_size=4))
def test_solve_consistency(rows, xs):
    """solve recovers some solution whenever one exists."""
    ncols = len(rows[0])
    x = [Fraction(v) for v in xs[:ncols]]
    b = [sum(Fraction(r[c]) * x[c] for c in range(ncols)) for r in rows]
    got = solve(rows, b)
    assert got is not None
    back = [sum(Fraction(r[c]) * got[c] for c in range(ncols)) for r in rows]
    assert back == b


def test_solve_inconsistent_returns_none():
    assert solve([[1, 0], [1, 0]], [1, 2]) is None


def test_in_row_space():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert in_row_space(rows, [1, 1, 2])
    assert not in_row_space(rows, [0, 0, 1])


def test_identity():
    assert identity(3) == [[Fraction(int(i == j)) for j in range(3)]
                           for i in range(3)]


def test_exact_fractions_no_overflow():
    rows = [[Fraction(1, 10 ** 12), Fraction(1)],
            [Fraction(1), Fraction(10 ** 12 + 1)]]
    assert rank(rows) == 2  # det = 1/10^12: lost entirely in float


def test_nullspace_of_zero_matrix():
    ns = nullspace([[0, 0, 0]], 3)
    assert len(ns) == 3
    assert nullspace([], 2) == identity(2)
