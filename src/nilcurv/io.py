"""JSON readers/writers for algebras, metrics, and deformation specs.

Algebra format (1-based indices, i < j, exact rational coefficients):
    {"name": str, "dim": n,
     "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1/2"}, ...]}
Metric format: {"gram": [[...], ...]}; omitted metric means identity Gram.
DeformationSpec format: {"metric": <metric JSON>, "lambdas": [...]}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import NilpotentAlgebra


class FormatError(ValueError):
    """Malformed input file; message names the offending key."""


def algebra_to_dict(a: NilpotentAlgebra) -> dict:
    entries = []
    for (i, j) in sorted(a.brackets):
        for k in sorted(a.brackets[(i, j)]):
            c = a.brackets[(i, j)][k]
            entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)})
    return {"name": a.name, "dim": a.n, "brackets": entries}


def algebra_from_dict(data: dict) -> NilpotentAlgebra:
    if "dim" not in data:
        raise FormatError("missing key 'dim'")
    n = data["dim"]
    if not isinstance(n, int) or n < 1:
        raise FormatError("key 'dim' must be a positive integer")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen: set[tuple[int, int, int]] = set()
    for idx, entry in enumerate(data.get("brackets", [])):
        for key in ("i", "j", "k", "c"):
            if key not in entry:
                raise FormatError(f"brackets[{idx}]: missing key '{key}'")
        i, j, k = entry["i"], entry["j"], entry["k"]
        if not all(isinstance(v, int) and 1 <= v <= n for v in (i, j, k)):
            raise FormatError(f"brackets[{idx}]: indices must be in 1..{n}")
        if i >= j:
            raise FormatError(f"brackets[{idx}]: requires i < j, got i={i}, j={j}")
        if (i, j, k) in seen:
            raise FormatError(f"brackets[{idx}]: duplicate (i,j,k)=({i},{j},{k})")
        seen.add((i, j, k))
        try:
            c = Fraction(str(entry["c"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"brackets[{idx}]: bad coefficient 'c': {exc}")
        brackets.setdefault((i - 1, j - 1), {})[k - 1] = c
    return NilpotentAlgebra(n, brackets, name=data.get("name", ""))


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}")


def load_algebra(path: str | Path) -> NilpotentAlgebra:
    return algebra_from_dict(_read_json(path))


def save_algebra(a: NilpotentAlgebra, path: str | Path) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(a), indent=2) + "\n")


def _float_array(value, key: str, shape: tuple) -> np.ndarray:
    """value as a finite float array of the given shape; FormatError
    otherwise."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"key '{key}' must be numeric: {exc}")
    if out.shape != shape:
        raise FormatError(f"key '{key}' must have shape {shape}, "
                          f"got {out.shape}")
    if not np.isfinite(out).all():
        raise FormatError(f"key '{key}' must be finite")
    return out


def _gram_from_dict(data, n: int) -> np.ndarray:
    """The n x n Gram matrix of a metric JSON object."""
    if not isinstance(data, dict) or "gram" not in data:
        raise FormatError("missing key 'gram'")
    return _float_array(data["gram"], "gram", (n, n))


def load_gram(path: str | Path | None, n: int) -> np.ndarray:
    if path is None:
        return np.eye(n)
    return _gram_from_dict(_read_json(path), n)


def load_deformation(path: str | Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Returns (gram, lambdas)."""
    data = _read_json(path)
    if not isinstance(data, dict) or "lambdas" not in data:
        raise FormatError("missing key 'lambdas'")
    lambdas = _float_array(data["lambdas"], "lambdas", (n,))
    if data.get("metric") is None:
        return np.eye(n), lambdas
    return _gram_from_dict(data["metric"], n), lambdas
