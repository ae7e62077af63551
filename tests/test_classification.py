"""Rank conditions, bracket-closure dichotomy, and the cocycle/derivation
class certificates."""

import numpy as np
import pytest

from nilcurv import (
    ClassificationError,
    NilpotentAlgebra,
    Subspace,
    build,
    check_rk5,
    check_rk7,
    cocycle_class_certificate,
    derivation_class_certificate,
    derivation_dimension,
    invariant_tuple,
    lemma6_classify,
    lemma7_classify,
    max_dimL_exact,
    max_dimL_sampled,
    restrict,
    shape_of_L,
    theorem2_expected_M,
)
from nilcurv.algebra import basis_vector
from nilcurv.classification import _random_rational_vector


def test_rk5_holds_on_filiform5():
    ok, wit = check_rk5(build("filiform_standard", n=5))
    assert ok and wit is not None


def test_rk5_fails_within_budget_on_small_closure():
    ok, _ = check_rk5(build("L5_lemma7a"), samples=40, seed=0)
    assert not ok
    ok, _ = check_rk5(build("heisenberg", m=2), samples=40, seed=0)
    assert not ok


def test_rk7_on_seven_dim():
    a = build("remark_famB", k=2, l=1)   # dim 5: rk7 cannot hold
    assert not check_rk7(a, samples=5)[0]


def test_max_dimL_exact_matches_sampled():
    for key, params in (("heisenberg", {"m": 1}), ("filiform4", {}),
                        ("heisenberg_x_abelian", {"l": 1, "pad": 1}),
                        ("L5_lemma7a", {}), ("filiform_standard", {"n": 5})):
        a = build(key, **params)
        exact = max_dimL_exact(a)
        sampled, _ = max_dimL_sampled(a, samples=60, seed=0)
        assert sampled == exact


def test_lemma6_verdicts():
    v = lemma6_classify(build("heisenberg_x_abelian", l=2, pad=2))
    assert v["class"] == "heisenberg_x_abelian"
    assert v["heisenberg_rank"] == 2 and v["pad"] == 2
    v = lemma6_classify(build("filiform4"))
    assert v["class"] == "filiform4"
    # the certified basis realizes the model brackets
    sub = restrict(build("filiform4"), Subspace(v["basis"], 4),
                   basis=v["basis"])
    assert sub is not None and sub.nilpotency_class() == 3
    v = lemma6_classify(build("filiform_standard", n=5))
    assert v["class"] == "not_applicable" and v["max_dimL"] == 5


def test_lemma6_on_rotated_filiform4():
    """The certificate is basis-independent: scramble filiform4 by an
    integer change of basis and classify again."""
    from fractions import Fraction
    a = build("filiform4")
    p = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 1]]  # det 1
    pinv = np.linalg.inv(np.array(p, float))
    brackets = {}
    for i in range(4):
        for j in range(i + 1, 4):
            w = a.bracket([Fraction(v) for v in p[i]],
                          [Fraction(v) for v in p[j]])
            coords = pinv.T @ np.array([float(t) for t in w])
            entry = {k: Fraction(round(c)) for k, c in enumerate(coords)
                     if abs(c) > 1e-9}
            if entry:
                brackets[(i, j)] = entry
    from nilcurv import NilpotentAlgebra
    scrambled = NilpotentAlgebra(4, brackets, name="scrambled")
    assert scrambled.validate().valid
    assert lemma6_classify(scrambled)["class"] == "filiform4"


def test_derivation_dimension_oracle():
    # abelian: every endomorphism is a derivation
    assert derivation_dimension(build("abelian", n=3)) == 9
    # h3: classical value dim Der(h3) = 6
    assert derivation_dimension(build("heisenberg", m=1)) == 6


def test_invariant_tuple_separates_L6_forms():
    ts = {key: invariant_tuple(build(key)) for key in ("L6_1", "L6_2",
                                                       "L6_3")}
    assert len(set(ts.values())) == 3


def test_derivation_certificate_L5_and_duv_identity():
    """Class-C certificate exists for the small normal forms, and D
    satisfies D[U,V] = 2[DU,V] = 2[U,DV] exactly on basis pairs."""
    for key in ("L5_lemma7a", "L6_1", "L6_2", "L6_3"):
        a = build(key)
        cert = derivation_class_certificate(a)
        assert cert is not None, key
        h, c = cert["h"], cert["c"]
        hb = h.basis
        for i in range(len(hb)):
            for j in range(i + 1, len(hb)):
                uv = a.bracket(hb[i], hb[j])
                duv = a.bracket(c, uv)
                du_v = a.bracket(a.bracket(c, hb[i]), hb[j])
                u_dv = a.bracket(hb[i], a.bracket(c, hb[j]))
                assert duv == [2 * t for t in du_v] == [2 * t for t in u_dv]


def test_remark_families_are_derivation_class():
    for key, params in (("remark_famA", {"k": 2, "l": 2}),
                        ("remark_famB", {"k": 2, "l": 1})):
        assert derivation_class_certificate(build(key, **params)) is not None


def _class_b_algebra():
    """Central extension of h3 + h3 by the cocycle with
    omega(z1, x1) = omega(z2, x2) = 1: class (B) but not class (C)."""
    from fractions import Fraction as F
    from nilcurv import NilpotentAlgebra
    br = {(0, 1): {2: F(1)}, (3, 4): {5: F(1)},
          (0, 2): {6: F(-1)}, (3, 5): {6: F(-1)}}
    return NilpotentAlgebra(7, br, name="classB")


def test_cocycle_certificate_on_class_b_extension():
    a = _class_b_algebra()
    assert a.validate().valid
    cert = cocycle_class_certificate(a, samples=30, seed=0)
    assert cert is not None
    assert cert["success_fraction"] >= 0.9
    assert cert["quotient"].is_two_step()
    # it is not of the derivation class, and lemma7 reports exactly that
    assert derivation_class_certificate(a) is None
    v = lemma7_classify(a)
    assert v.lemma7_classes == ["cocycle"]


def test_lemma7_preconditions():
    with pytest.raises(ClassificationError):
        lemma7_classify(build("abelian", n=3))
    with pytest.raises(ClassificationError):
        lemma7_classify(build("heisenberg", m=1))
    with pytest.raises(ClassificationError):
        lemma7_classify(build("filiform_standard", n=5))


def test_lemma7_identifies_shapes():
    v = lemma7_classify(build("L5_lemma7a"))
    assert "derivation" in v.lemma7_classes
    assert v.N == 5 and v.L_shape == "lemma7a"
    for key, label in (("L6_1", "dimsix1"), ("L6_2", "dimsix2"),
                       ("L6_3", "dimsix3")):
        v = lemma7_classify(build(key))
        assert v.N == 6 and v.L_shape == label, key


def test_generic_triple_shape_stability():
    """At least 95 of 100 random rational triples in L5_lemma7a span the
    whole algebra and match the five-dimensional shape."""
    a = build("L5_lemma7a")
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(100):
        t = tuple(_random_rational_vector(rng, 5) for _ in range(3))
        n_dim, label = shape_of_L(a, t)
        if n_dim == 5 and label == "lemma7a":
            hits += 1
    assert hits >= 95


def test_theorem2_expected_M():
    a = build("heisenberg", m=2)
    assert theorem2_expected_M(a).basis == a.derived_algebra().basis
    a = build("filiform4")
    ideal = a.find_codim1_abelian_ideal()
    assert theorem2_expected_M(a).basis == ideal.basis
    # filiform4 in the basis (W, X - 5W, Y, Z)
    a = NilpotentAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1},
                             (1, 2): {3: -5}})
    assert theorem2_expected_M(a).dim == 3
    a = build("abelian", n=3)
    assert theorem2_expected_M(a).dim == 3
    a = build("filiform_standard", n=5)
    assert theorem2_expected_M(a).dim == 5


def test_restrict_non_subalgebra_returns_none():
    a = build("heisenberg", m=1)
    s = Subspace([basis_vector(3, 0), basis_vector(3, 1)], 3)
    assert restrict(a, s) is None
