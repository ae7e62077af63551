"""Nilpotent Lie algebras given by exact rational structure constants.

Structure constants are stored sparsely for i < j (0-based); skew-symmetry
is implied by the storage convention. Every structural query (center,
series, ideal search, rank) runs over the rationals so that predicates
such as "is this bracket zero" are decided exactly. Inside, they run on
integer rows: the structure constants over one denominator
(`integer_constants`), brackets of integer vectors in integers
(`integer_bracket`), and subspaces as primitive integer RREF rows
(`Subspace.rows`). Fractions are made where a caller reads them:
`bracket`, `Subspace.basis` and `Subspace.coordinates`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .rational import (
    Matrix,
    as_fraction,
    integer_nullspace,
    integer_row,
    integer_rref,
)

VectorLike = Sequence

FLOAT_MEMBERSHIP_REL = 1e-9


def exact_vector(v: VectorLike) -> list[Fraction]:
    return [as_fraction(x) for x in v]


def basis_vector(n: int, i: int) -> list[Fraction]:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


class Subspace:
    """Subspace of coordinate space, canonicalized by its RREF: `rows`
    holds each RREF row scaled by its least common denominator, which is
    the primitive integer row with a positive pivot, and `pivots` their
    pivot columns. The Fraction rows `basis` and their float view
    `float_basis` are made on first read; treat all three as read-only."""

    def __init__(self, vectors: Sequence[VectorLike], n: int):
        self.n = n
        self.rows, self.pivots = integer_rref(integer_row(v)[0]
                                              for v in vectors)

    @classmethod
    def from_integer_rows(cls, rows, n: int) -> "Subspace":
        """The span of integer rows of length n, each read as it is."""
        s = cls.__new__(cls)
        s.n = n
        s.rows, s.pivots = integer_rref(rows)
        return s

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Matrix:
        """The RREF rows, in Fractions."""
        return [[Fraction(x, r[p]) for x in r]
                for r, p in zip(self.rows, self.pivots)]

    @cached_property
    def float_basis(self) -> np.ndarray:
        """The RREF rows in float, (dim, n), read-only."""
        b = np.array([[x / r[p] for x in r]
                      for r, p in zip(self.rows, self.pivots)],
                     float).reshape(-1, self.n)
        b.flags.writeable = False
        return b

    def _spans(self, v: list[int]) -> bool:
        """Whether the integer row v lies in the subspace: each RREF row
        is 0 at the other pivots, so v reduced as r[p] v - v[p] r by every
        row r in turn is zero iff v is in the span."""
        for r, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                d = r[p]
                v = [d * a - f * b for a, b in zip(v, r)]
        return not any(v)

    def coordinates(self, v: VectorLike) -> list[Fraction] | None:
        """The c with v = sum_i c_i basis_i, or None if v is not in the
        subspace. Row i of the RREF basis is 1 at pivot i and 0 at the
        other pivots, so c_i can only be v at pivot i."""
        vv, d = integer_row(v)
        if not self._spans(vv):
            return None
        return [Fraction(vv[p], d) for p in self.pivots]

    def contains(self, v: VectorLike) -> bool:
        return self._spans(integer_row(v)[0])

    def contains_float(self, v) -> bool:
        """Membership of a float vector, up to a least-squares residual of
        FLOAT_MEMBERSHIP_REL |v|."""
        v = np.asarray(v, float)
        b = self.float_basis.T
        resid = v - b @ np.linalg.lstsq(b, v, rcond=None)[0]
        return bool(np.linalg.norm(resid)
                    <= FLOAT_MEMBERSHIP_REL * np.linalg.norm(v))

    def _complement_pivots(self) -> list[int]:
        """The p of the e_p of `complement`."""
        return integer_nullspace(self.rows, self.n)[1]

    def complement(self) -> list[list[Fraction]]:
        """The standard vectors e_p, p a pivot column of the RREF
        annihilator. Column i of the annihilator is the image of e_i in
        g/s, so these are the e_i that a scan e_0, ..., e_{n-1} keeps when
        each raises the dimension of s + span(kept)."""
        return [basis_vector(self.n, p) for p in self._complement_pivots()]

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self._spans(r) for r in other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, tuple(tuple(r) for r in self.rows)))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_integer_rows(self.rows + other.rows, self.n)

    def intersection(self, other: "Subspace") -> "Subspace":
        # null space of the stacked annihilator conditions
        n = self.n
        ann = integer_nullspace(self.rows, n)[0] \
            + integer_nullspace(other.rows, n)[0]
        return Subspace.from_integer_rows(integer_nullspace(ann, n)[0], n)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


@dataclass
class ValidationReport:
    valid: bool
    jacobi_failures: list[tuple[int, int, int]]
    nilpotent: bool
    nilpotency_class: int | None
    abelian: bool

    def __bool__(self):
        return self.valid


@dataclass
class NilpotentAlgebra:
    """Lie algebra of dimension n with sparse rational structure constants.

    brackets maps (i, j) with i < j (0-based) to {k: c} meaning
    [e_i, e_j] = sum_k c * e_k.
    """

    n: int
    brackets: dict[tuple[int, int], dict[int, Fraction]] = field(
        default_factory=dict)
    name: str = ""

    def __post_init__(self):
        clean: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comps in self.brackets.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0<=i<j<n")
            entry = {k: f for k, c in comps.items()
                     if (f := as_fraction(c)) != 0}
            for k in entry:
                if not 0 <= k < self.n:
                    raise ValueError(f"target index {k} out of range")
            if entry:
                clean[(i, j)] = entry
        self.brackets = clean
        self._structure_float: np.ndarray | None = None
        self._structure_int: tuple[dict, int] | None = None
        self._center: Subspace | None = None
        self._derived: Subspace | None = None
        self._series: list[Subspace] | None = None
        self._two_step: bool | None = None
        self._word_basis: NilpotentAlgebra | None = None

    # -- bracket ---------------------------------------------------------

    def basis_bracket(self, i: int, j: int) -> list[Fraction]:
        out = [Fraction(0)] * self.n
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.brackets.get((i, j), {}).items():
            out[k] = sign * c
        return out

    def integer_constants(self) -> tuple[dict, int]:
        """The structure constants over their least common denominator D,
        one `integer_row` of all of them: (i, j) -> [(k, D c_ij^k)] for
        i < j, and D."""
        if self._structure_int is None:
            nums, den = integer_row(c for comps in self.brackets.values()
                                    for c in comps.values())
            it = iter(nums)
            self._structure_int = ({key: [(k, next(it)) for k in comps]
                                    for key, comps in self.brackets.items()},
                                   den)
        return self._structure_int

    def integer_bracket(self, x: list[int], y: list[int]) -> list[int]:
        """D [x, y] for integer vectors x and y, D the denominator of
        `integer_constants`: sum_{i<j} (x_i y_j - x_j y_i) D c_ij^k."""
        out = [0] * self.n
        for (i, j), comps in self.integer_constants()[0].items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                for k, c in comps:
                    out[k] += coef * c
        return out

    def bracket(self, x: VectorLike, y: VectorLike) -> list[Fraction]:
        """[x, y] in exact arithmetic (floats are rationalized first): with
        x = X/dx and y = Y/dy, it is `integer_bracket`(X, Y) / (dx dy D)."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("vector length must equal algebra dimension")
        (xv, dx), (yv, dy) = integer_row(x), integer_row(y)
        den = self.integer_constants()[1] * dx * dy
        return [Fraction(v, den) for v in self.integer_bracket(xv, yv)]

    def structure_tensor(self) -> np.ndarray:
        """Dense float tensor C with [e_i,e_j] = sum_k C[i,j,k] e_k."""
        if self._structure_float is None:
            c = np.zeros((self.n, self.n, self.n))
            for (i, j), comps in self.brackets.items():
                for k, v in comps.items():
                    c[i, j, k] = float(v)
                    c[j, i, k] = -float(v)
            self._structure_float = c
        return self._structure_float

    def bracket_float(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] in float, over the leading axes of stacked x and y."""
        c = self.structure_tensor()
        return np.einsum("...i,...j,ijk->...k", np.asarray(x, float),
                         np.asarray(y, float), c)

    def ad(self, x: VectorLike) -> Matrix:
        """Matrix of ad_x (columns are [x, e_j])."""
        cols = [self.bracket(x, basis_vector(self.n, j))
                for j in range(self.n)]
        return [[cols[j][k] for j in range(self.n)] for k in range(self.n)]

    # -- structural queries ---------------------------------------------

    def is_abelian(self) -> bool:
        return not self.brackets

    def derived_algebra(self) -> Subspace:
        if self._derived is None:
            n = self.n
            self._derived = Subspace.from_integer_rows(
                [[dict(comps).get(k, 0) for k in range(n)]
                 for comps in self.integer_constants()[0].values()], n)
        return self._derived

    def lower_central_series(self) -> list[Subspace]:
        """g = g^0 >= g^1 >= ... strictly decreasing to zero, or up to the
        first term that does not shrink when g is not nilpotent. Built
        once per algebra, from the integer brackets [e_i, v] of the rows
        v of each term; each call returns a fresh list."""
        if self._series is None:
            n, units = self.n, np.eye(self.n, dtype=int).tolist()
            current = Subspace.from_integer_rows(units, n)
            series = [current]
            while current.dim > 0:
                nxt = Subspace.from_integer_rows(
                    [self.integer_bracket(e, v)
                     for e in units for v in current.rows], n)
                series.append(nxt)
                if nxt.dim >= current.dim:   # not nilpotent: series stalled
                    break
                current = nxt
            self._series = series
        return list(self._series)

    def is_nilpotent(self) -> bool:
        series = self.lower_central_series()
        return series[-1].dim == 0

    def nilpotency_class(self) -> int | None:
        series = self.lower_central_series()
        if series[-1].dim != 0:
            return None
        return len(series) - 1

    def center(self) -> Subspace:
        """Exact null space of the stacked ad-matrices of the basis: row
        (i, k) holds the e_k-components of [e_i, e_j] over j, here D times
        them, from `integer_constants`."""
        if self._center is None:
            n = self.n
            stacked: dict[tuple[int, int], list[int]] = {}
            for (i, j), comps in self.integer_constants()[0].items():
                for k, c in comps:
                    stacked.setdefault((i, k), [0] * n)[j] = c
                    stacked.setdefault((j, k), [0] * n)[i] = -c
            self._center = Subspace.from_integer_rows(
                integer_nullspace(stacked.values(), n)[0], n)
        return self._center

    def word_basis(self) -> "NilpotentAlgebra":
        """The algebra in a basis P of bracket words, sparse in any input
        basis: the generators `derived_algebra().complement()`, layer by
        layer each [generator, word] independent of the words so far, then
        the complement of their span. Its brackets are P^-1 [P_i, P_j].
        The words are those of `integer_bracket`, each word of depth d
        D^d times the word of `bracket`."""
        if self._word_basis is None:
            n, den = self.n, self.integer_constants()[1]
            units = np.eye(n, dtype=int).tolist()
            gens = [units[p]
                    for p in self.derived_algebra()._complement_pivots()]
            words, span = list(gens), Subspace.from_integer_rows(gens, n)
            for v in words:   # read while it grows, so layer by layer
                for w in [self.integer_bracket(g, v) for g in gens]:
                    if not span._spans(w):
                        words.append(w)
                        span = Subspace.from_integer_rows(span.rows + [w], n)
            words += [units[p] for p in span._complement_pivots()]
            # row k of [P^T | I] reduced is b_k, with
            # e_k = sum_c (b_k[n + c] / b_k[k]) P_c
            inv = integer_rref([w + e for w, e in zip(words, units)])[0]
            big = math.prod(b[k] for k, b in enumerate(inv))
            brackets = {}
            for i, j in itertools.combinations(range(n), 2):
                w = self.integer_bracket(words[i], words[j])   # D [P_i, P_j]
                if any(w):
                    brackets[(i, j)] = {c: Fraction(sum(
                        v * b[n + c] * (big // b[k])
                        for k, (v, b) in enumerate(zip(w, inv)) if v),
                        big * den) for c in range(n)}
            self._word_basis = NilpotentAlgebra(n, brackets,
                                                name=f"{self.name}|words")
        return self._word_basis

    def is_two_step(self) -> bool:
        """True iff g' lies in the center, that is [g, [g, g]] = 0
        (abelian counts as degenerate two-step). Decided once per
        algebra."""
        if self._two_step is None:
            self._two_step = self.center().contains_subspace(
                self.derived_algebra())
        return self._two_step

    def jacobi_failures(self) -> list[tuple[int, int, int]]:
        """The triples i < j < k, in lexicographic order, on which the
        Jacobi identity fails: some component l of
        [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]], that is
        sum_m (c_jk^m c_im^l + c_ki^m c_jm^l + c_ij^m c_km^l), is nonzero.
        Summed in integers over the sparse constants of
        `integer_constants` (scaling every c by D scales the sum by D^2)."""
        skew: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j), comps in self.integer_constants()[0].items():
            skew[(i, j)] = comps
            skew[(j, i)] = [(k, -c) for k, c in comps]
        bad = []
        for i, j, k in itertools.combinations(range(self.n), 3):
            s = [0] * self.n
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, u in skew.get((b, c), ()):
                    for l, v in skew.get((a, m), ()):
                        s[l] += u * v
            if any(s):
                bad.append((i, j, k))
        return bad

    def validate(self) -> ValidationReport:
        failures = self.jacobi_failures()
        nilpotent = self.is_nilpotent() if not failures else False
        cls = self.nilpotency_class() if nilpotent else None
        return ValidationReport(
            valid=(not failures) and nilpotent,
            jacobi_failures=failures,
            nilpotent=nilpotent,
            nilpotency_class=cls,
            abelian=self.is_abelian(),
        )

    def find_codim1_abelian_ideal(self) -> Subspace | None:
        """A codimension-one abelian ideal, decided by one exact linear solve.

        A hyperplane H = ker phi is an ideal iff phi vanishes on g' (the
        quotient g/H is one-dimensional, hence abelian; conversely H >= g'
        gives [g, H] <= H). Writing [x, y] = sum_k w_k(x, y) e_k, H is
        abelian iff every 2-form w_k vanishes on ker phi, i.e. iff
        phi ^ w_k = 0. For a < b < c that is the linear row
        phi_a w_k(b,c) - phi_b w_k(a,c) + phi_c w_k(a,b) = 0, so the
        admissible phi form the null space of these rows stacked on the
        basis of g'. None is returned iff that space is zero; otherwise H
        is the kernel of its first RREF row.

        The answer does not depend on the basis when g is not two-step:
        two distinct such ideals A1 != A2 would give
        g' = [A1, A2] <= A1 n A2 <= z(g) (since g = A1 + A2 and each is
        abelian), making g two-step. So the solution space is then a line.
        """
        if self.is_abelian():
            if self.n == 0:
                return None
            # canonical choice: drop the last coordinate
            return Subspace.from_integer_rows(
                np.eye(self.n, dtype=int).tolist()[:-1], self.n)
        n = self.n
        w = {key: dict(comps)
             for key, comps in self.integer_constants()[0].items()}
        rows = list(self.derived_algebra().rows)
        for a, b, c in itertools.combinations(range(n), 3):
            for k in range(n):
                row = [0] * n
                row[a] = w.get((b, c), {}).get(k, 0)
                row[b] = -w.get((a, c), {}).get(k, 0)
                row[c] = w.get((a, b), {}).get(k, 0)
                if any(row):
                    rows.append(row)
        phis = integer_nullspace(rows, n)[0]
        if not phis:
            return None
        return Subspace.from_integer_rows(
            integer_nullspace(phis[:1], n)[0], n)

    def __repr__(self):
        label = self.name or "algebra"
        return f"NilpotentAlgebra({label}, n={self.n}, brackets={len(self.brackets)})"
