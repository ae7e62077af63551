"""Exact rational linear algebra, cross-checked against numpy on random
integer matrices."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcurv.rational import (
    as_fraction,
    as_matrix,
    identity,
    nullspace,
    rank,
    rref,
    solve,
)

small_int = st.integers(min_value=-5, max_value=5)


def in_row_space(rows, v) -> bool:
    """Reference for Subspace.contains: v adds nothing to the rank."""
    base = as_matrix(rows)
    r0 = rank(base)
    base.append([as_fraction(x) for x in v])
    return rank(base) == r0


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


def _rref_column_sweep(rows):
    """The column-sweep RREF, a reference oracle: for each column, pick the
    first row at or below the pivot row with a nonzero entry, normalize it
    and clear the column from every other row."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    pivot_row = 0
    for col in range(len(m[0])):
        pick = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0),
                    None)
        if pick is None:
            continue
        m[pivot_row], m[pick] = m[pick], m[pivot_row]
        pv = m[pivot_row][col]
        m[pivot_row] = [x / pv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return m[:pivot_row]


def _random_fraction_matrices(rng):
    """Seeded Fraction matrices: tall, wide and square; full rank and rank
    deficient (products of thin factors); with zero and duplicate rows."""
    def frac():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))

    def dense(r, c):
        return [[frac() for _ in range(c)] for _ in range(r)]

    def product(r, k, c):
        a, b = dense(r, k), dense(k, c)
        return [[sum((a[i][l] * b[l][j] for l in range(k)), Fraction(0))
                 for j in range(c)] for i in range(r)]

    out = []
    for r, c in [(7, 3), (3, 7), (5, 5), (1, 4), (4, 1), (9, 6)]:
        out.append(dense(r, c))
        out.append(product(r, max(1, min(r, c) - 1), c))
        m = dense(r, c)
        m.insert(int(rng.integers(0, r + 1)), [Fraction(0)] * c)
        m.append(list(m[int(rng.integers(0, len(m)))]))
        out.append(m)
    out.append([[Fraction(0)] * 4 for _ in range(3)])
    return out


def test_rref_matches_column_sweep():
    rng = np.random.default_rng(16)
    for _ in range(20):
        for rows in _random_fraction_matrices(rng):
            want = _rref_column_sweep(rows)
            assert rref(rows) == want
            assert rref(iter(rows)) == want
            assert rank(rows) == len(want)
    assert rref([]) == [] == _rref_column_sweep([])
    assert rref(iter([])) == []


def test_rref_stops_reading_at_full_column_rank():
    def rows():
        yield [1, 2, 3]
        yield [0, 0, 5]
        yield [2, 4, 6]       # dependent: read, but adds no pivot
        yield [0, 7, 0]
        raise AssertionError("read past full column rank")

    assert rref(rows()) == identity(3)
    assert rank(rows()) == 3
