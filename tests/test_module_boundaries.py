"""No library module imports or reads another module's private names, no
library function binds a name it never reads or imports anything except
where listed as lazy, no library module other than the package's
`__init__` imports a name it never reads, floats are rounded to
Fractions and bases turned into metrics only at the listed sites, neither
sign_sets nor the CLI draws at random, pyproject.toml declares exactly
the third-party packages the library imports, and every exported name is
used by the library itself, except where listed."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nilcurv"
MODULES = {p.stem for p in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """`from .mod import _name`, and `mod._name` with mod a sibling module
    bound by `from . import mod [as m]` or `import nilcurv.mod [as m]`."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0
                or (node.module or "").split(".")[0] == "nilcurv"):
            for a in node.names:
                if _private(a.name):
                    found.append(f"line {node.lineno}: import {a.name}")
                if node.module in (None, "nilcurv") and a.name in MODULES:
                    aliases.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "nilcurv" and len(parts) == 2:
                    aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            found.append(f"line {node.lineno}: {base.id}.{node.attr}")
        elif (isinstance(base, ast.Attribute)
              and isinstance(base.value, ast.Name)
              and base.value.id == "nilcurv" and base.attr in MODULES):
            found.append(f"line {node.lineno}: {base.attr}.{node.attr}")
    return found


def test_checker_flags_private_access():
    source = ("from .verify import _sphere_grid\n"
              "from . import sign_sets as ss\n"
              "import nilcurv.curvature\n"
              "ss._scaled_ric_ladder\n"
              "nilcurv.curvature._CHUNK\n"
              "from . import __version__\n"
              "metric._inv\n"
              "ss.classify_plane\n")
    assert private_uses(source) == [
        "line 1: import _sphere_grid",
        "line 4: ss._scaled_ric_ladder",
        "line 5: curvature._CHUNK"]


def test_no_private_cross_module_access():
    uses = {p.name: private_uses(p.read_text())
            for p in sorted(SRC.glob("*.py"))}
    assert not any(uses.values()), uses


def _own_scope(node):
    """The nodes of node's own scope: nested functions, lambdas and
    classes are left out."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
            yield child
            yield from _own_scope(child)


def unread_locals(source: str) -> list[str]:
    """Names a function (nested ones included) binds and never reads. A
    read in a nested function counts; `_`-prefixed names and names
    declared global or nonlocal are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reads = {n.id for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        own = list(_own_scope(fn))
        reads |= {name for n in own if isinstance(n, (ast.Global,
                                                      ast.Nonlocal))
                  for name in n.names}
        for n in own:
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                    and not n.id.startswith("_") and n.id not in reads):
                found.append(f"line {n.lineno}: {fn.name}.{n.id}")
    return found


def test_checker_flags_unread_locals():
    source = ("def f(a):\n"
              "    b, _c = a\n"
              "    d = 1\n"
              "    for i in range(2):\n"
              "        pass\n"
              "    def g():\n"
              "        e = d\n"
              "        return b\n"
              "    return g\n")
    assert unread_locals(source) == ["line 4: f.i", "line 7: g.e"]


def test_no_unread_locals():
    unread = {p.name: unread_locals(p.read_text())
              for p in sorted(SRC.glob("*.py"))}
    assert not any(unread.values()), unread


def unread_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that nothing in
    it reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    reads = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name not in reads:
                    found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_unread_imports():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .algebra import Subspace, basis_vector as bv\n"
              "from . import rational\n"
              "def f(x: Subspace):\n"
              "    from .io import load_gram\n"
              "    return np.zeros(x)\n")
    assert unread_imports(source) == [
        "line 3: os", "line 4: bv", "line 5: rational"]


def test_no_unread_imports():
    unread = {p.name: unread_imports(p.read_text())
              for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert not any(unread.values()), unread


# (module file, function, imported name): sympy stays off the cold start
LAZY_IMPORTS = {("sign_sets.py", "_central_plane_g2", "sympy")}


def function_imports(source: str) -> list[tuple[str, str]]:
    """(function, imported name) for every import statement inside a
    function, nested functions included."""
    return [(fn.name, a.name)
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in _own_scope(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names]


def test_checker_flags_function_imports():
    source = ("import numpy as np\n"
              "def f(x):\n"
              "    from .rational import solve\n"
              "    def g():\n"
              "        import sympy, math\n"
              "    return solve\n"
              "class C:\n"
              "    def m(self):\n"
              "        from . import io\n")
    assert sorted(function_imports(source)) == [
        ("f", "solve"), ("g", "math"), ("g", "sympy"), ("m", "io")]


def test_no_function_imports():
    found = {(p.name, fn, name)
             for p in sorted(SRC.glob("*.py"))
             for fn, name in function_imports(p.read_text())}
    assert found == LAZY_IMPORTS


# (module file, function): where a float is rounded to a Fraction. A float
# tested against an exact subspace goes through Subspace.contains_float.
ROUNDING_SITES = {("rational.py", "as_fraction"),
                  ("verify.py", "check_coverage")}


def _sites(source: str, match) -> list[str]:
    """The innermost enclosing function of every node for which match is
    true ("<module>" outside any function)."""
    tree = ast.parse(source)
    fns = [n for n in ast.walk(tree)
           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in ast.walk(tree):
        if match(node):
            owners = [f for f in fns
                      if f.lineno <= node.lineno <= f.end_lineno]
            found.append(max(owners, key=lambda f: f.lineno).name
                         if owners else "<module>")
    return found


def rounding_sites(source: str) -> list[str]:
    """Where `limit_denominator` is referenced."""
    return _sites(source, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "limit_denominator")


def test_checker_flags_rounding_sites():
    source = ("from fractions import Fraction\n"
              "HALF = Fraction(0.5).limit_denominator(2)\n"
              "def f(xs):\n"
              "    def g(x):\n"
              "        return Fraction(x).limit_denominator(10)\n"
              "    return [g(x) for x in xs], Fraction.limit_denominator\n")
    assert sorted(rounding_sites(source)) == ["<module>", "f", "g"]


def test_no_new_rounding_sites():
    found = {(p.name, fn)
             for p in sorted(SRC.glob("*.py"))
             for fn in rounding_sites(p.read_text())}
    assert found == ROUNDING_SITES


# (module file, function): the one place a metric is made from a basis it
# orthonormalizes, G = (B B^T)^-1
ORTHONORMALIZING_SITES = {("curvature.py", "orthonormalizing")}


def _is_orthonormalizing_inverse(node) -> bool:
    """`inv(B @ B.T)`, through any name ending in `inv`, with the same
    expression B on both sides of the product."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1):
        return False
    fn, arg = node.func, node.args[0]
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
    return (name == "inv" and isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.MatMult)
            and isinstance(arg.right, ast.Attribute) and arg.right.attr == "T"
            and ast.dump(arg.left) == ast.dump(arg.right.value))


def orthonormalizing_inverses(source: str) -> list[str]:
    """Where `inv(B @ B.T)` is computed."""
    return _sites(source, _is_orthonormalizing_inverse)


def test_checker_flags_orthonormalizing_inverses():
    source = ("import numpy as np\n"
              "from numpy.linalg import inv\n"
              "G = np.linalg.inv(B @ B.T)\n"
              "def f(b, d):\n"
              "    g = inv(b.cols @ b.cols.T)\n"
              "    h = np.linalg.inv(b @ np.diag(d) @ b.T)\n"
              "    k = np.linalg.inv(b @ d.T)\n"
              "    return g, h, k, np.linalg.inv(b.T @ b)\n")
    assert orthonormalizing_inverses(source) == ["<module>", "f"]


def test_no_new_orthonormalizing_inverses():
    found = {(p.name, fn)
             for p in sorted(SRC.glob("*.py"))
             for fn in orthonormalizing_inverses(p.read_text())}
    assert found == ORTHONORMALIZING_SITES


def _called_name(node) -> str:
    """The last name of the function a call node calls ("" otherwise)."""
    if not isinstance(node, ast.Call):
        return ""
    fn = node.func
    return fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")


def _is_random_draw(node) -> bool:
    """A call of `default_rng`, under any module path, or of
    `Metric.random`."""
    name = _called_name(node)
    fn = getattr(node, "func", None)
    return name == "default_rng" or (
        name == "random" and isinstance(fn, ast.Attribute)
        and isinstance(fn.value, ast.Name) and fn.value.id == "Metric")


def random_draws(source: str) -> list[str]:
    """Where a generator is seeded or a random metric drawn."""
    return _sites(source, _is_random_draw)


def test_checker_flags_random_draws():
    source = ("import numpy as np\n"
              "from numpy.random import default_rng\n"
              "RNG = np.random.default_rng(0)\n"
              "def f(n, metric):\n"
              "    def g():\n"
              "        return default_rng(1)\n"
              "    return Metric.random(n, g()), metric.random(), np.random\n")
    assert sorted(random_draws(source)) == ["<module>", "f", "g"]


def test_witnesses_are_not_drawn_at_random():
    """Sign witnesses are constructions: sign_sets seeds no generator and
    draws no random metric."""
    assert random_draws((SRC / "sign_sets.py").read_text()) == []


def test_cli_draws_nothing_at_random():
    """The maxmin candidates come from deformation.lemma5_candidates: the
    CLI seeds no generator and draws no random metric."""
    assert random_draws((SRC / "cli.py").read_text()) == []


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports of `source`, function-level
    ones included, that are neither in the standard library nor the
    package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found |= {name.split(".")[0] for name in names}
    return found - set(sys.stdlib_module_names) - {"nilcurv"}


def test_checker_flags_third_party_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from . import rational\n"
              "from nilcurv.algebra import Subspace\n"
              "from scipy.linalg import null_space\n"
              "def f():\n"
              "    import sympy.polys\n")
    assert third_party_imports(source) == {"numpy", "scipy", "sympy"}


def test_declared_dependencies_are_the_imported_ones():
    """pyproject.toml declares exactly the third-party packages that src
    imports, lazy imports included."""
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    with open(SRC.parents[1] / "pyproject.toml", "rb") as f:
        declared = {re.split(r"[\s<>=!~;\[]", dep)[0]
                    for dep in tomllib.load(f)["project"]["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text())
                             for p in SRC.glob("*.py")))
    assert imported == declared


def call_sites(source: str, name: str) -> list[str]:
    """Where a function of that name is called, under any module path."""
    return _sites(source, lambda node: _called_name(node) == name)


def sampling_functions(source: str) -> list[str]:
    """The functions that take a `samples` or `seed` parameter."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            & {"samples", "seed"}]


def test_checker_flags_calls_and_sampling_parameters():
    source = ("def f(a, samples=3):\n"
              "    def g(*, seed):\n"
              "        return m.draw(seed)\n"
              "    return draw(a), g, drawn(a)\n"
              "def h(a, sample=1):\n"
              "    return [draw for _ in a]\n")
    assert sorted(call_sites(source, "draw")) == ["f", "g"]
    assert sorted(sampling_functions(source)) == ["f", "g"]


def test_rank_conditions_are_not_sampled():
    """rk5, rk7, dim L and the cocycle class are read at fixed seeded
    points, so no function of the module takes `samples` or `seed`, and
    only `_grid_points` makes a generator."""
    source = (SRC / "classification.py").read_text()
    assert sampling_functions(source) == []
    assert call_sites(source, "default_rng") == ["_grid_points"]


# exported names that no library module uses: both are `LAYERS` names of
# perfbench/tracing.py, which wraps and counts them in the traced run
UNCALLED_EXPORTS = {"lemma7_classify", "max_dimL_exact"}


def referenced_names(source: str) -> set[str]:
    """The names `source` imports, reads, or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            found.add(node.attr)
    return found


def unreferenced_exports(init_source: str, sources: list[str]) -> list[str]:
    """The names in the `__all__` of `init_source` that none of `sources`
    references."""
    exported = next(ast.literal_eval(node.value)
                    for node in ast.parse(init_source).body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", "") == "__all__"
                            for t in node.targets))
    used = set().union(*map(referenced_names, sources))
    return [name for name in exported if name not in used]


def test_checker_flags_unreferenced_exports():
    init = ("from .a import f, g, h, k, C\n"
            "__all__ = ['f', 'g', 'h', 'k', 'C', 'm']\n")
    sources = ["def f():\n    return g()\n"
               "def g():\n    return 1\n"
               "def h():\n    pass\n",
               "from .a import k\n"
               "class C:\n    pass\n"
               "x = mod.C\n"
               "m = 1\n"]
    assert unreferenced_exports(init, sources) == ["f", "h", "m"]


def test_every_export_is_used_in_the_library():
    """Each name of `nilcurv.__all__` is called or read by some library
    module other than `__init__`; a name only tests reach belongs in the
    tests."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"]
    assert unreferenced_exports((SRC / "__init__.py").read_text(),
                                sources) == sorted(UNCALLED_EXPORTS)
