"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; all routines are pure and return
fresh objects. Used for every structural predicate in the package, where
floating tolerances would turn exact dichotomies into guesses.

Inside, the elimination runs on integer rows: each row read is scaled by
its least common denominator (`integer_row`) and kept primitive (gcd 1),
rows are combined by integer cross-multiplication, and Fractions are made
only for the result, entry / pivot. The RREF is unique, so the result is
the one a Fraction elimination gives.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Sequence

Row = list[Fraction]
Matrix = list[Row]


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    # after the builtin types: an ABC test is slower than a type test
    if isinstance(x, numbers.Integral):   # numpy integer scalars
        return Fraction(int(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def as_matrix(rows: Iterable[Sequence]) -> Matrix:
    return [[as_fraction(x) for x in row] for row in rows]


def integer_row(values: Iterable) -> tuple[list[int], int]:
    """Integers v and the least common denominator d > 0 of the values,
    with values = v / d; each value is coerced through `as_fraction`."""
    xs = [x if type(x) is int else as_fraction(x) for x in values]
    d = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _primitive(row: list[int]) -> list[int]:
    """The nonzero integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1.

    Built row by row: each row read is reduced by the basis so far (kept
    fully reduced, keyed by pivot column) and, if nonzero, becomes a new
    pivot row that is cleared from the others. The RREF of a matrix is
    unique, so this gives the same rows as a column sweep. Rows are read
    lazily, and reading stops once every column has a pivot: the RREF is
    then the identity, whatever rows remain.

    Each basis row b is a primitive integer row with b[p] != 0 at its
    pivot p; it reduces a row r as b[p] r - r[p] b, and its row of the
    result is b / b[p].
    """
    basis: dict[int, list[int]] = {}
    ncols = None
    for raw in rows:
        row = integer_row(raw)[0]
        if ncols is None:
            ncols = len(row)
        for p, b in basis.items():
            f = row[p]
            if f:
                d = b[p]
                row = [d * a - f * v for a, v in zip(row, b)]
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        row = _primitive(row)
        pv = row[piv]
        for p, b in basis.items():
            f = b[piv]
            if f:
                basis[p] = _primitive([pv * a - f * v
                                       for a, v in zip(b, row)])
        basis[piv] = row
        if len(basis) == ncols:
            break
    return [[Fraction(x, b[p]) for x in b] for p, b in sorted(basis.items())]


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def nullspace(rows: Iterable[Sequence], ncols: int | None = None) -> Matrix:
    """Basis of the right null space of the matrix, as RREF rows."""
    m = as_matrix(rows)
    if not m:
        if ncols is None:
            return []
        return identity(ncols)
    n = len(m[0]) if ncols is None else ncols
    red = rref(m)
    pivots = []
    for row in red:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(n) if j not in pivots]
    basis: Matrix = []
    for j in free:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[j]
        basis.append(v)
    return rref(basis)


def identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def solve(a: Iterable[Sequence], b: Sequence) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent."""
    m = as_matrix(a)
    rhs = [as_fraction(x) for x in b]
    if not m:
        return None if any(x != 0 for x in rhs) else []
    n = len(m[0])
    aug = [row + [t] for row, t in zip(m, rhs)]
    red = rref(aug)
    x = [Fraction(0)] * n
    for row in red:
        piv = next((j for j, v in enumerate(row) if v != 0), None)
        if piv is None:
            continue
        if piv == n:
            return None
        x[piv] = row[n]
    return x
