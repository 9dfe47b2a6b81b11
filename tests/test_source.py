"""Checks on the package source itself, standard library only.

Every name an import statement binds in ``src/cohspace`` must be used in the
scope that imports it: the module for module-level imports, the function for
imports inside a function.  Names used only inside string annotations count.

Every function, class, method and class-level field defined in
``src/cohspace`` must be named somewhere besides its definition, in ``src``,
``tests``, ``scripts`` or ``bench``.  A name counts where the code of a
Python file names it (see ``identifiers``); a mention in a comment or a
docstring does not.
Tests alone do not keep a name alive: the search over ``src``, ``scripts``,
``bench`` and the acceptance criteria (``tests/test_acceptance.py``) must
find every name too.

The numerical-derivative rule is written once: ``src/cohspace`` holds one
Richardson combination (4.0 * a - b) / 3.0 and no 4-point mixed stencil.

The Gram spectrum is solved in one function: in ``kernels``, ``qspace`` and
``quantize`` every ``eigh``, ``eigvalsh`` and ``svd`` call lies inside
``kernels.gram_spectrum``.

Every cohspace name the benchmark's tracer (``bench/spans.py``) wraps is
defined in ``src/cohspace``, so a rename fails here instead of leaving a
bench counter at 0.

The third-party modules ``src/cohspace`` imports are the ``dependencies``
that ``pyproject.toml`` declares, no more and no fewer.
"""

import ast
import collections
import re
import sys
from pathlib import Path

import cohspace

PACKAGE = Path(cohspace.__file__).resolve().parent


def _own_imports(scope):
    """Import statements of this scope, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _bound_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used_names(scope):
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list:
    """(line, name) of every imported name its scope never uses."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for scope in scopes:
        used = _used_names(scope)
        for node in _own_imports(scope):
            found += [(node.lineno, name) for name in _bound_names(node) if name not in used]
    return sorted(found)


def test_the_scan_finds_unused_imports():
    source = ("import os\nimport numpy as np\nfrom typing import Optional\n"
              "def f(x: 'Optional[int]'):\n    import json\n    return np.zeros(x)\n"
              "def g():\n    import json\n    return json.dumps(1)\n")
    assert unused_imports(source) == [(1, "os"), (5, "json")]


def test_no_unused_imports_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 15
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


# ------------------------------------------------------------- dead names


def defined_names(source: str) -> list:
    """(qualified name, name) of every function, class, method and
    class-level field the module defines; dunder names are called implicitly
    and left out."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [child.name]
            elif isinstance(node, ast.ClassDef) and isinstance(child, ast.AnnAssign):
                names = [child.target.id] if isinstance(child.target, ast.Name) else []
            elif isinstance(node, ast.ClassDef) and isinstance(child, ast.Assign):
                names = [t.id for t in child.targets if isinstance(t, ast.Name)]
            found.extend((prefix + name, name) for name in names
                         if not (name.startswith("__") and name.endswith("__")))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            elif not isinstance(child, (ast.AnnAssign, ast.Assign)):
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def identifiers(source: str) -> list:
    """Every identifier the code of a source names: Name and Attribute
    nodes, def and class names, import aliases, keyword-argument names, and
    string constants that are a bare identifier (the bench's tables name
    functions this way).  Comments and docstrings name nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.alias):
            found += node.name.split(".") + ([node.asname] if node.asname else [])
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.append(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.append(node.value)
    return found


def dead_names(package_sources, corpus) -> list:
    """Qualified names the package defines that the corpus (the package
    included) names no more often than the package defines them."""
    defined = [pair for source in package_sources for pair in defined_names(source)]
    definitions = collections.Counter(name for _, name in defined)
    named = collections.Counter(name for source in corpus for name in identifiers(source))
    return sorted(q for q, name in defined if named[name] <= definitions[name])


def test_the_scan_finds_dead_names():
    package = ("class Widget:\n    size: int = 0\n    spare_slot: int = 1\n"
               "    def __init__(self):\n        self.size = 2\n"
               "    def orphan_method(self):\n        return self.size\n"
               "def used_helper():\n    def inner_orphan():\n        return 1\n    return Widget()\n"
               "def lonely_helper():\n    return used_helper()\n"
               "def quiet_helper():\n    return 0\n")
    elsewhere = "from pkg import lonely_helper\nlonely_helper()\n"
    assert dead_names([package], [package, elsewhere]) == [
        "Widget.orphan_method", "Widget.spare_slot", "quiet_helper", "used_helper.inner_orphan"]
    assert dead_names([package], [package]) == [
        "Widget.orphan_method", "Widget.spare_slot", "lonely_helper", "quiet_helper",
        "used_helper.inner_orphan"]
    # a docstring or a comment mentions a name without using it
    mentions = ('"""The docstring mentions quiet_helper."""\n'
                "# and so does this comment: quiet_helper()\n")
    assert "quiet_helper" in dead_names([package], [package, elsewhere, mentions])
    # a bare-identifier string and a keyword argument do use it
    uses = "getattr(Widget(), 'orphan_method')\nWidget(spare_slot=3)\n"
    assert dead_names([package], [package, elsewhere, uses]) == [
        "quiet_helper", "used_helper.inner_orphan"]


def _sources(*names):
    """The text of every Python file under each named folder, or of the named file."""
    root = Path(__file__).resolve().parents[1]
    paths = [path for name in names for path in
             (sorted((root / name).rglob("*.py")) if (root / name).is_dir() else [root / name])]
    return [path.read_text(encoding="utf-8") for path in paths]


def test_every_name_the_package_defines_is_named_elsewhere():
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    corpus = _sources("src", "tests", "scripts", "bench")
    assert len(package) >= 15 and len(corpus) > len(package)
    assert dead_names(package, corpus) == []


def test_every_name_the_package_defines_has_a_user_besides_the_tests():
    """The commands, scripts, bench and criteria name every package name; a
    name only the other tests reach belongs in the tests or nowhere."""
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    corpus = _sources("src", "scripts", "bench", "tests/test_acceptance.py")
    assert len(package) >= 15 and len(corpus) > len(package) + 3
    assert dead_names(package, corpus) == []


# ------------------------------------------------------ derivative rules


def _is_number(node, value) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _is_binop(node, op) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def derivative_rules(source: str) -> collections.Counter:
    """How often the source writes the Richardson combination (4.0 * a - b) / 3.0
    and the 4-point stencil f(..) - f(..) - f(..) + f(..), four calls of one
    function f with two arguments each."""
    found = collections.Counter()
    for node in ast.walk(ast.parse(source)):
        if (_is_binop(node, ast.Div) and _is_number(node.right, 3.0)
                and _is_binop(node.left, ast.Sub) and _is_binop(node.left.left, ast.Mult)
                and _is_number(node.left.left.left, 4.0)):
            found["richardson"] += 1
        terms, ops, left = [], [], node
        while _is_binop(left, (ast.Add, ast.Sub)):
            terms.append(left.right)
            ops.append(type(left.op))
            left = left.left
        terms.append(left)
        if (ops == [ast.Add, ast.Sub, ast.Sub]
                and all(isinstance(t, ast.Call) and len(t.args) == 2 for t in terms)
                and len({ast.dump(t.func) for t in terms}) == 1):
            found["stencil"] += 1
    return found


def test_the_scan_finds_the_derivative_rules():
    source = ("a = (4.0 * q2 - q1) / 3.0\nb = (4.0 * q2 + q1) / 3.0\n"
              "c = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)\n"
              "d = (f(x + h * e, x + h * e) - f(x + h * e, x - h * e)\n"
              "     - f(x - h * e, x + h * e) + f(x - h * e, x - h * e))\n"
              "e = f(h, h) - g(h, -h) - f(-h, h) + f(-h, -h)\n"
              "f = f(h) - f(-h) - f(h) + f(-h)\n")
    assert derivative_rules(source) == {"richardson": 1, "stencil": 2}


def test_each_derivative_rule_is_written_once():
    found = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found += derivative_rules(path.read_text(encoding="utf-8"))
    assert found == {"richardson": 1}


# --------------------------------------------------- Gram spectrum route

SPECTRUM_SOLVERS = ("eigh", "eigvalsh", "svd")


def spectrum_solver_calls(source: str) -> list:
    """(outermost function, solver) of every call of a spectrum solver, any
    ``<...>.eigh``, ``.eigvalsh`` or ``.svd`` (np.linalg's or another
    module's): a method is Class.method, and a call outside every function
    has None."""
    found = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", None)
            elif owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, prefix + child.name)
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr in SPECTRUM_SOLVERS):
                    found.append((owner, child.func.attr))
                visit(child, prefix, owner)

    visit(ast.parse(source), "", None)
    return found


def test_the_scan_finds_the_spectrum_solvers():
    source = ("import numpy as np\nimport scipy.linalg as sl\n"
              "TOP = np.linalg.eigvalsh(np.eye(2))\n"
              "def spectrum(g):\n    def inner():\n        return np.linalg.svd(g)\n"
              "    return np.linalg.eigh(g), inner()\n"
              "class Chart:\n    def radius(self):\n        return sl.eigh(self.h)\n"
              "def other(g):\n    return np.linalg.norm(g), np.linalg.eigvals(g)\n")
    assert spectrum_solver_calls(source) == [
        (None, "eigvalsh"), ("spectrum", "svd"), ("spectrum", "eigh"), ("Chart.radius", "eigh")]


def test_the_gram_spectrum_is_solved_in_one_function():
    """kernels.gram_spectrum is the only place where kernels, qspace and
    quantize factor a Gram or a feature matrix."""
    found = {name: spectrum_solver_calls((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("kernels", "qspace", "quantize")}
    assert {name: sorted({owner for owner, _ in calls}) for name, calls in found.items()} == {
        "kernels": ["gram_spectrum"], "qspace": [], "quantize": []}
    assert sorted(solver for _, solver in found["kernels"]) == ["eigh", "eigvalsh", "svd"]


def eigvalsh_owners(source: str) -> list:
    """The functions (Class.method for a method) that call an eigvalsh, sorted."""
    return sorted({owner for owner, solver in spectrum_solver_calls(source)
                   if solver == "eigvalsh"})


def test_the_eigvalsh_scan_tells_one_check_from_two():
    one = ("import numpy as np\n"
           "def _check_hermitian_psd(a):\n    return np.linalg.eigvalsh(a)\n"
           "class State:\n    def __post_init__(self):\n        _check_hermitian_psd(self.form)\n")
    two = ("import numpy as np\n"
           "class State:\n    def __post_init__(self):\n        np.linalg.eigvalsh(self.form)\n"
           "def state_from_density(rho):\n    return np.linalg.eigh(rho), np.linalg.eigvalsh(rho)\n")
    assert eigvalsh_owners(one) == ["_check_hermitian_psd"]
    assert eigvalsh_owners(two) == ["State.__post_init__", "state_from_density"]


def test_liealg_runs_eigvalsh_only_in_its_hermitian_psd_check():
    """Expectation forms and densities share one Hermitian-PSD check."""
    source = (PACKAGE / "liealg.py").read_text(encoding="utf-8")
    assert eigvalsh_owners(source) == ["_check_hermitian_psd"]


# ------------------------------------------------ names the bench wraps


def bench_bindings(source: str) -> list:
    """(module, name) of every cohspace function or method a tracer source
    wraps: the rows of its _SPANNED, _METHODS and _SPECTRAL_MODELS tables
    (methods as Class.method) and the every(modules, "<module>", "<name>", ...)
    calls that spell both names out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            table = node.targets[0].id
            if table == "_SPANNED":
                found += [(module, name) for module, name, _ in ast.literal_eval(node.value)]
            elif table == "_METHODS":
                found += [(module, f"{cls}.{name}")
                          for module, cls, name, _ in ast.literal_eval(node.value)]
            elif table == "_SPECTRAL_MODELS":
                found += [("spectra", name) for name in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "every" and len(node.args) >= 3
              and all(isinstance(a, ast.Constant) for a in node.args[1:3])):
            found.append((node.args[1].value, node.args[2].value))
    return found


def module_names(source: str) -> set:
    """Names a module binds at its top level (functions, classes, assignments,
    imports), and Class.method for the methods of its classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= set(_bound_names(node))
    return names


def test_the_scan_reads_the_bench_bindings():
    tracer = ("_SPANNED = (('io', 'write_csv', 'io.write'),)\n"
              "_METHODS = (('chaos', 'KickedTop', 'period', None),)\n"
              "_SPECTRAL_MODELS = ('coulomb_model',)\n"
              "def install(self, modules):\n"
              "    every = self._patch_everywhere\n"
              "    every(modules, 'cli', 'run', lambda f, m: f)\n"
              "    for home, attr, name in _SPANNED:\n"
              "        every(modules, home, attr, None)\n")
    assert bench_bindings(tracer) == [("io", "write_csv"), ("chaos", "KickedTop.period"),
                                      ("spectra", "coulomb_model"), ("cli", "run")]
    module = ("from .kernels import gram_matrix\nTOL = 1e-8\n"
              "class KickedTop:\n    size: int = 0\n    def period(self):\n        pass\n"
              "def run():\n    def inner():\n        pass\n")
    assert module_names(module) == {"gram_matrix", "TOL", "KickedTop", "KickedTop.period",
                                    "run"}


def test_every_name_the_bench_wraps_is_defined_in_the_package():
    root = Path(__file__).resolve().parents[1]
    wrapped = bench_bindings((root / "bench" / "spans.py").read_text(encoding="utf-8"))
    assert {("kernels", "sample_points"), ("reps", "propagate_eig"), ("kernels", "gram_matrix"),
            ("kernels", "eval_kernel"), ("reps", "SpinRep.dgamma")} <= set(wrapped)
    defined = {path.stem: module_names(path.read_text(encoding="utf-8"))
               for path in PACKAGE.glob("*.py")}
    assert [(module, name) for module, name in wrapped
            if name not in defined.get(module, ())] == []


# ------------------------------------------------- declared dependencies


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports outside the standard library."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__"}


def test_the_scan_finds_third_party_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from . import io\nfrom .errors import ConfigError\n"
              "def f():\n    import scipy.linalg\n    from orjson import dumps\n")
    assert third_party_imports(source) == {"numpy", "scipy", "orjson"}


def test_declared_dependencies_are_the_third_party_imports():
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    declared = set(re.findall(r'"([\w.-]+)', listed))
    imported = set().union(*(third_party_imports(path.read_text(encoding="utf-8"))
                             for path in PACKAGE.glob("*.py")))
    assert declared == imported == {"numpy", "scipy", "orjson"}
