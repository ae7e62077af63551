"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; all routines are pure and return
fresh objects. Used for every structural predicate in the package, where
floating tolerances would turn exact dichotomies into guesses.

The elimination runs on integer rows (`integer_rref`, `integer_nullspace`):
rows are combined by integer cross-multiplication (fraction-free, after
Bareiss) and kept primitive (gcd 1), and a row of the RREF is returned as
its primitive integer multiple with a positive pivot. The RREF is unique,
so that row is canonical. The Fraction routines read each row through
`integer_row`, which scales it by its least common denominator, and make
Fractions only for their result, entry / pivot.
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
    if all(type(x) is int for x in xs):
        return xs, 1
    d = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _primitive(row: list[int]) -> list[int]:
    """The nonzero integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def integer_rref(rows: Iterable[list[int]]
                 ) -> tuple[list[list[int]], list[int]]:
    """(rows, pivots): the rows of the reduced row echelon form of integer
    rows, each as its primitive integer multiple with a positive pivot, in
    pivot order, and their pivot columns; zero rows dropped.

    Built row by row: each row read is reduced by the basis so far (kept
    fully reduced, keyed by pivot column) and, if nonzero, becomes a new
    pivot row that is cleared from the others. The RREF of a matrix is
    unique, so this gives the same rows as a column sweep. Rows are read
    lazily, and reading stops once every column has a pivot: the RREF is
    then the identity, whatever rows remain.

    Each basis row b is a primitive integer row with b[p] != 0 at its
    pivot p; it reduces a row r as b[p] r - r[p] b, and its RREF row is
    b / b[p].
    """
    basis: dict[int, list[int]] = {}
    ncols = None
    for row in rows:
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
    pivots = sorted(basis)
    return [basis[p] if basis[p][p] > 0 else [-x for x in basis[p]]
            for p in pivots], pivots


def integer_nullspace(rows: Iterable[list[int]], n: int
                      ) -> tuple[list[list[int]], list[int]]:
    """(rows, pivots): the `integer_rref` of the right null space of the
    integer rows of length n. The free column j gives the solution that
    is s at j and -b[j] s / b[p] at each pivot p, s the product of the
    pivots b[p] of the rows b with b[j] != 0."""
    red, pivots = integer_rref(rows)
    pairs = list(zip(red, pivots))
    basis = []
    for j in sorted(set(range(n)) - set(pivots)):
        s = math.prod(b[p] for b, p in pairs if b[j])
        v = [0] * n
        v[j] = s
        for b, p in pairs:
            if b[j]:
                v[p] = -b[j] * s // b[p]
        basis.append(v)
    return integer_rref(basis)


def _fractions(rows: list[list[int]], pivots: list[int]) -> Matrix:
    return [[Fraction(x, b[p]) for x in b] for b, p in zip(rows, pivots)]


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1
    (`integer_rref` of the rows read through `integer_row`)."""
    return _fractions(*integer_rref(integer_row(r)[0] for r in rows))


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def nullspace(rows: Iterable[Sequence], ncols: int | None = None) -> Matrix:
    """Basis of the right null space of the matrix, as RREF rows."""
    m = [integer_row(r)[0] for r in rows]
    if not m and ncols is None:
        return []
    return _fractions(*integer_nullspace(m, len(m[0]) if ncols is None
                                         else ncols))


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
