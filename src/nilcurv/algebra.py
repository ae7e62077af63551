"""Nilpotent Lie algebras given by exact rational structure constants.

Structure constants are stored sparsely for i < j (0-based); skew-symmetry
is implied by the storage convention. Every structural query (center,
series, ideal search, rank) runs over the rationals so that predicates
such as "is this bracket zero" are decided exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rational import (
    Matrix,
    as_fraction,
    identity,
    integer_row,
    nullspace,
    rref,
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
    """Subspace of coordinate space, canonicalized as rational RREF rows."""

    def __init__(self, vectors: Sequence[VectorLike], n: int):
        self.n = n
        self.basis: Matrix = rref(vectors)
        # pivot column of each RREF row
        self.pivots = [next(j for j, x in enumerate(row) if x != 0)
                       for row in self.basis]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, v: VectorLike) -> list[Fraction] | None:
        """The c with v = sum_i c_i basis_i, or None if v is not in the
        subspace. Row i of the RREF basis is 1 at pivot i and 0 at the
        other pivots, so c_i can only be v at pivot i."""
        vv = exact_vector(v)
        coords = [vv[p] for p in self.pivots]
        terms = [(c, row) for c, row in zip(coords, self.basis) if c != 0]
        if any(sum(c * row[j] for c, row in terms if row[j] != 0) != vv[j]
               for j in range(self.n)):
            return None
        return coords

    def contains(self, v: VectorLike) -> bool:
        return self.coordinates(v) is not None

    def contains_float(self, v) -> bool:
        """Membership of a float vector, up to a least-squares residual of
        FLOAT_MEMBERSHIP_REL |v|."""
        v = np.asarray(v, float)
        b = np.array(self.basis, float).reshape(-1, self.n).T
        resid = v - b @ np.linalg.lstsq(b, v, rcond=None)[0]
        return bool(np.linalg.norm(resid)
                    <= FLOAT_MEMBERSHIP_REL * np.linalg.norm(v))

    def complement(self) -> list[list[Fraction]]:
        """The standard vectors e_p, p a pivot column of the RREF
        annihilator. Column i of the annihilator is the image of e_i in
        g/s, so these are the e_i that a scan e_0, ..., e_{n-1} keeps when
        each raises the dimension of s + span(kept)."""
        annihilator = Subspace(nullspace(self.basis, self.n), self.n)
        return [basis_vector(self.n, p) for p in annihilator.pivots]

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.n == other.n
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.n, tuple(tuple(r) for r in self.basis)))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(list(self.basis) + list(other.basis), self.n)

    def intersection(self, other: "Subspace") -> "Subspace":
        # null space of the stacked annihilator conditions
        ann_self = nullspace(self.basis, self.n)
        ann_other = nullspace(other.basis, self.n)
        return Subspace(nullspace(ann_self + ann_other, self.n), self.n)

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

    def bracket(self, x: VectorLike, y: VectorLike) -> list[Fraction]:
        """[x, y] in exact arithmetic (floats are rationalized first), summed
        in integers: x = X/dx, y = Y/dy and c = C/D give
        [x, y]_k = sum_{i<j} (X_i Y_j - X_j Y_i) C_ij^k / (dx dy D)."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("vector length must equal algebra dimension")
        (xv, dx), (yv, dy) = integer_row(x), integer_row(y)
        consts, den = self.integer_constants()
        out = [0] * self.n
        for (i, j), comps in consts.items():
            coef = xv[i] * yv[j] - xv[j] * yv[i]
            if coef:
                for k, c in comps:
                    out[k] += coef * c
        den *= dx * dy
        return [Fraction(v, den) for v in out]

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
            gens = [self.basis_bracket(i, j)
                    for (i, j) in self.brackets]
            self._derived = Subspace(gens, self.n)
        return self._derived

    def lower_central_series(self) -> list[Subspace]:
        """g = g^0 >= g^1 >= ... strictly decreasing to zero, or up to the
        first term that does not shrink when g is not nilpotent. Built
        once per algebra; each call returns a fresh list."""
        if self._series is None:
            series = [Subspace(identity(self.n), self.n)]
            current = series[0]
            while current.dim > 0:
                gens = []
                for i in range(self.n):
                    ei = basis_vector(self.n, i)
                    for v in current.basis:
                        w = self.bracket(ei, v)
                        if any(x != 0 for x in w):
                            gens.append(w)
                nxt = Subspace(gens, self.n)
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
        (i, k) holds the e_k-components of [e_i, e_j] over j."""
        if self._center is None:
            n = self.n
            stacked: Matrix = [[Fraction(0)] * n for _ in range(n * n)]
            for (i, j), comps in self.brackets.items():
                for k, c in comps.items():
                    stacked[i * n + k][j] = c
                    stacked[j * n + k][i] = -c
            self._center = Subspace(nullspace(stacked, n), n)
        return self._center

    def word_basis(self) -> "NilpotentAlgebra":
        """The algebra in a basis P of bracket words, sparse in any input
        basis: the generators `derived_algebra().complement()`, layer by
        layer each [generator, word] independent of the words so far, then
        the complement of their span. Its brackets are P^-1 [P_i, P_j]."""
        if self._word_basis is None:
            n, gens = self.n, self.derived_algebra().complement()
            words, span = list(gens), Subspace(gens, n)
            for v in words:   # read while it grows, so layer by layer
                for w in [self.bracket(g, v) for g in gens]:
                    if not span.contains(w):
                        words.append(w)
                        span = Subspace(span.basis + [w], n)
            words += span.complement()
            # row k of inv is e_k in the coordinates of the words
            inv = [row[n:] for row in rref(
                [w + basis_vector(n, i) for i, w in enumerate(words)])]
            brackets = {}
            for i, j in itertools.combinations(range(n), 2):
                w = self.bracket(words[i], words[j])
                if any(w):
                    brackets[(i, j)] = {c: sum(v * r[c] for v, r in zip(
                        w, inv) if v) for c in range(n)}
            self._word_basis = NilpotentAlgebra(n, brackets,
                                                name=f"{self.name}|words")
        return self._word_basis


    def is_two_step(self) -> bool:
        """True iff g' lies in the center, that is [g, [g, g]] = 0
        (abelian counts as degenerate two-step)."""
        return self.center().contains_subspace(self.derived_algebra())

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
            return Subspace([basis_vector(self.n, i)
                             for i in range(self.n - 1)], self.n)
        n, w = self.n, self.brackets
        rows: Matrix = list(self.derived_algebra().basis)
        for a, b, c in itertools.combinations(range(n), 3):
            for k in range(n):
                row = [Fraction(0)] * n
                row[a] = w.get((b, c), {}).get(k, 0)
                row[b] = -w.get((a, c), {}).get(k, 0)
                row[c] = w.get((a, b), {}).get(k, 0)
                if any(row):
                    rows.append(row)
        phis = nullspace(rows, n)
        if not phis:
            return None
        return Subspace(nullspace(phis[:1], n), n)

    def __repr__(self):
        label = self.name or "algebra"
        return f"NilpotentAlgebra({label}, n={self.n}, brackets={len(self.brackets)})"
