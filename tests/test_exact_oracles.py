"""The integer kernel under the exact layer against the Fraction loops it
replaced: `rref` against a row-by-row Fraction elimination, `bracket`
against the Fraction sum over the structure constants, `jacobi_failures`
against the double brackets of basis vectors, and `validate` against a
report built from these three. Every comparison is exact, and every entry
returned must be a Fraction."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from nilcurv import NilpotentAlgebra, list_catalog
from nilcurv.algebra import ValidationReport, basis_vector
from nilcurv.rational import as_fraction, identity, integer_row, rank, rref


def fraction_rref(rows):
    """Reference: the row-by-row RREF in Fraction arithmetic, reading rows
    lazily and stopping at full column rank."""
    basis = {}
    ncols = None
    for raw in rows:
        row = [as_fraction(x) for x in raw]
        if ncols is None:
            ncols = len(row)
        for p, b in basis.items():
            f = row[p]
            if f:
                row = [a - f * v if v else a for a, v in zip(row, b)]
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        pv = row[piv]
        row = [x / pv for x in row]
        for p, b in basis.items():
            f = b[piv]
            if f:
                basis[p] = [a - f * v if v else a for a, v in zip(b, row)]
        basis[piv] = row
        if len(basis) == ncols:
            break
    return [basis[p] for p in sorted(basis)]


def fraction_bracket(alg, x, y):
    """Reference: [x, y] summed in Fractions over the sparse constants."""
    xv = [as_fraction(v) for v in x]
    yv = [as_fraction(v) for v in y]
    out = [Fraction(0)] * alg.n
    for (i, j), comps in alg.brackets.items():
        coef = xv[i] * yv[j] - xv[j] * yv[i]
        if coef == 0:
            continue
        for k, c in comps.items():
            out[k] += coef * c
    return out


def bracket_jacobi_failures(alg):
    """Reference: the triples i < j < k whose cyclic sum of double
    brackets of basis vectors is nonzero."""
    n, br = alg.n, lambda x, y: fraction_bracket(alg, x, y)
    bad = []
    for i, j, k in itertools.combinations(range(n), 3):
        ei, ej, ek = (basis_vector(n, m) for m in (i, j, k))
        s = [a + b + c for a, b, c in zip(br(ei, br(ej, ek)),
                                          br(ej, br(ek, ei)),
                                          br(ek, br(ei, ej)))]
        if any(x != 0 for x in s):
            bad.append((i, j, k))
    return bad


def fraction_series(alg):
    """Reference: the RREF bases of the lower central series, up to zero or
    the first term that does not shrink."""
    n = alg.n
    series = [identity(n)]
    while series[-1]:
        gens = [w for i in range(n) for v in series[-1]
                if any(w := fraction_bracket(alg, basis_vector(n, i), v))]
        series.append(fraction_rref(gens))
        if len(series[-1]) >= len(series[-2]):
            break
    return series


def reference_report(alg):
    """Reference: the ValidationReport from the three oracles above."""
    failures = bracket_jacobi_failures(alg)
    series = [] if failures else fraction_series(alg)
    nilpotent = bool(series) and not series[-1]
    return ValidationReport(
        valid=nilpotent, jacobi_failures=failures, nilpotent=nilpotent,
        nilpotency_class=len(series) - 1 if nilpotent else None,
        abelian=not alg.brackets)


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def mixed_value(rng):
    """An int, a zero, a Fraction with denominator up to 10^6, or a float
    (rounded by limit_denominator), including numpy scalars."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return int(rng.integers(-9, 10))
    if kind == 1:
        return 0
    if kind == 2:
        return Fraction(int(rng.integers(-10 ** 6, 10 ** 6 + 1)),
                        int(rng.integers(1, 10 ** 6 + 1)))
    if kind == 3:
        return float(rng.uniform(-3.0, 3.0))
    if kind == 4:
        return np.int64(rng.integers(-5, 6))
    return np.float64(rng.integers(-8, 9) / 4.0)


def mixed_matrices(rng):
    """Tall, wide and square matrices of mixed values; full rank, rank
    deficient (integer combinations of a few rows) and with zero and
    duplicate rows."""
    out = []
    for r, c in [(7, 3), (3, 7), (5, 5), (1, 4), (4, 1), (9, 6), (6, 8)]:
        dense = [[mixed_value(rng) for _ in range(c)] for _ in range(r)]
        out.append(dense)
        k = max(1, min(r, c) - 2)
        base = [[as_fraction(x) for x in row] for row in dense[:k]]
        combos = [[sum((int(rng.integers(-3, 4)) * b[j] for b in base),
                       Fraction(0)) for j in range(c)] for _ in range(r)]
        out.append(combos)
        m = [list(row) for row in dense]
        m.insert(int(rng.integers(0, r + 1)), [0] * c)
        m.append(list(m[int(rng.integers(0, len(m)))]))
        out.append(m)
    out.append([[0.0] * 4 for _ in range(3)])
    return out


def test_integer_row_scales_by_the_least_common_denominator():
    vals = [Fraction(1, 6), 2, Fraction(-3, 4), 0.5, np.int64(3)]
    ints, d = integer_row(vals)
    assert d == 12 and ints == [2, 24, -9, 6, 36]
    assert all(type(v) is int for v in ints)
    assert integer_row([]) == ([], 1)


def test_rref_matches_fraction_rref_on_mixed_inputs():
    rng = np.random.default_rng(29)
    for _ in range(15):
        for rows in mixed_matrices(rng):
            want = fraction_rref(rows)
            got = rref(rows)
            assert got == want and all_fractions(got)
            assert rref(iter(rows)) == want
            assert rank(rows) == len(want)
    assert rref([]) == fraction_rref([]) == []


def sl2():
    """h, e, f: a Lie algebra that is not nilpotent (g' = g)."""
    return NilpotentAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2},
                                (1, 2): {0: 1}}, name="sl2")


def hand_built():
    """Non-Lie and non-nilpotent algebras, with int, Fraction and float
    constants."""
    return [
        sl2(),
        NilpotentAlgebra(2, {(0, 1): {1: 1}}, name="ax+b"),
        NilpotentAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: Fraction(-1, 3)}},
                         name="rotation-ish"),
        NilpotentAlgebra(4, {(0, 1): {2: 1}, (1, 2): {3: 1},
                             (0, 2): {0: 1}}, name="non-lie-a"),
        NilpotentAlgebra(4, {(0, 1): {2: Fraction(7, 10 ** 6)},
                             (0, 2): {3: 0.5}, (1, 3): {2: -2},
                             (2, 3): {0: Fraction(1, 999983)}},
                         name="non-lie-b"),
        NilpotentAlgebra(5, {(0, 1): {2: 1, 4: Fraction(-2, 3)},
                             (0, 2): {3: 1}, (1, 2): {4: 1.25},
                             (3, 4): {0: 1}}, name="non-lie-c"),
    ]


def random_algebras(rng, count=12):
    """Algebras with random sparse mixed constants, most of them not Lie."""
    out = []
    for t in range(count):
        n = int(rng.integers(3, 7))
        br = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                br[(i, j)] = {int(k): mixed_value(rng) for k in
                              rng.choice(n, size=int(rng.integers(1, 3)),
                                         replace=False)}
        out.append(NilpotentAlgebra(n, br, name=f"random{t}"))
    return out


def algebras():
    return ([e.build() for e in list_catalog()] + hand_built()
            + random_algebras(np.random.default_rng(2900)))


@pytest.mark.parametrize("alg", algebras(), ids=lambda a: a.name)
def test_bracket_matches_fraction_bracket(alg):
    rng = np.random.default_rng(alg.n)
    n = alg.n
    vectors = [basis_vector(n, i) for i in range(n)]
    vectors += [[mixed_value(rng) for _ in range(n)] for _ in range(6)]
    vectors.append(np.arange(n) - 2)
    vectors.append(np.linspace(-1.0, 1.0, n))
    for x, y in itertools.product(vectors, repeat=2):
        got = alg.bracket(x, y)
        assert got == fraction_bracket(alg, x, y)
        assert len(got) == n and all_fractions([got])
    ad = alg.ad(vectors[-3])
    assert all_fractions(ad)
    assert ad == [[fraction_bracket(alg, vectors[-3], basis_vector(n, j))[k]
                   for j in range(n)] for k in range(n)]


@pytest.mark.parametrize("alg", algebras(), ids=lambda a: a.name)
def test_jacobi_series_and_report_match_their_references(alg):
    assert alg.jacobi_failures() == bracket_jacobi_failures(alg)
    assert alg.validate() == reference_report(alg)
    series = alg.lower_central_series()
    assert [s.basis for s in series] == fraction_series(alg)
    assert all(all_fractions(s.basis) for s in series)


def test_references_see_the_failures():
    """The hand-built algebras exercise both branches: Jacobi failures,
    and Lie algebras whose series stalls."""
    reports = {a.name: reference_report(a) for a in hand_built()}
    assert reports["sl2"].jacobi_failures == [] and not reports["sl2"].nilpotent
    assert reports["ax+b"] == ValidationReport(False, [], False, None, False)
    assert all(reports[f"non-lie-{s}"].jacobi_failures for s in "abc")
    assert all(reference_report(e.build()).valid for e in list_catalog())


@pytest.mark.parametrize("make", [list_catalog()[-1].build, sl2],
                         ids=["catalog", "sl2"])
def test_lower_central_series_is_built_once(monkeypatch, make):
    """validate builds the series once, as one series call does, and each
    later call returns a fresh list of the cached terms, also when the
    series stalls."""
    calls = []
    bracket = NilpotentAlgebra.integer_bracket
    monkeypatch.setattr(NilpotentAlgebra, "integer_bracket",
                        lambda self, x, y: calls.append(1) or bracket(
                            self, x, y))
    make().lower_central_series()
    once = len(calls)
    calls.clear()
    alg = make()
    report = alg.validate()
    assert report == reference_report(make()) and len(calls) == once > 0
    series = alg.lower_central_series()
    series.append(None)
    assert alg.lower_central_series() == series[:-1]
    assert alg.nilpotency_class() == report.nilpotency_class
    assert len(calls) == once
