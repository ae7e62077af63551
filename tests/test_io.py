"""JSON ingestion: round trips and diagnostics that name the offending
key."""

import json

import numpy as np
import pytest

from nilcurv import FormatError, build, load_algebra, load_deformation, \
    load_gram, save_algebra
from nilcurv.io import algebra_from_dict, algebra_to_dict


def test_round_trip_all_catalog(tmp_path):
    from nilcurv import list_catalog
    for entry in list_catalog():
        a = entry.build()
        p = tmp_path / "alg.json"
        save_algebra(a, p)
        b = load_algebra(p)
        assert b.n == a.n and b.brackets == a.brackets and b.name == a.name


def test_rational_coefficients_survive():
    a = build("filiform_standard", n=5)
    d = algebra_to_dict(a)
    assert all(isinstance(e["c"], str) for e in d["brackets"])
    b = algebra_from_dict(d)
    assert b.brackets == a.brackets


@pytest.mark.parametrize("data,needle", [
    ({}, "dim"),
    ({"dim": 0}, "dim"),
    ({"dim": 3, "brackets": [{"j": 2, "k": 3, "c": "1"}]}, "'i'"),
    ({"dim": 3, "brackets": [{"i": 2, "j": 1, "k": 3, "c": "1"}]}, "i < j"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 9, "c": "1"}]}, "1..3"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "x"}]}, "c"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                             {"i": 1, "j": 2, "k": 3, "c": "2"}]},
     "duplicate"),
    ({"dim": 3, "brackets": [1]}, "'brackets'"),
    ({"dim": 3, "brackets": 5}, "'brackets'"),
    ([{"dim": 3}], "'dim'"),
])
def test_format_errors_name_offender(data, needle):
    with pytest.raises(FormatError) as exc:
        algebra_from_dict(data)
    assert needle in str(exc.value)


def test_invalid_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        load_algebra(p)


def test_load_gram_default_and_shape(tmp_path):
    assert np.array_equal(load_gram(None, 3), np.eye(3))
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"gram": np.eye(2).tolist()}))
    with pytest.raises(FormatError):
        load_gram(p, 3)
    assert np.array_equal(load_gram(p, 2), np.eye(2))


def test_load_deformation(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps({"lambdas": [1, -1, 0]}))
    g, lam = load_deformation(p, 3)
    assert np.array_equal(g, np.eye(3))
    assert np.array_equal(lam, [1.0, -1.0, 0.0])
    p.write_text(json.dumps({"lambdas": [1, -1]}))
    with pytest.raises(FormatError):
        load_deformation(p, 3)
