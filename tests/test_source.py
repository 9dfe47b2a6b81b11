"""Checks on the package source itself, standard library only.

Every name an import statement binds in ``src/cohspace`` must be used in the
scope that imports it: the module for module-level imports, the function for
imports inside a function.  Names used only inside string annotations count.

Every function, class, method and class-level field defined in
``src/cohspace`` must be named somewhere besides its definition, in ``src``,
``tests``, ``scripts`` or ``bench`` (a whole-word search of the Python files).

The numerical-derivative rule is written once: ``src/cohspace`` holds one
Richardson combination (4.0 * a - b) / 3.0 and one 4-point mixed stencil.
"""

import ast
import collections
import re
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


def dead_names(package_sources, corpus) -> list:
    """Qualified names the package defines that the corpus (the package
    included) names no more often than the package defines them."""
    defined = [pair for source in package_sources for pair in defined_names(source)]
    definitions = collections.Counter(name for _, name in defined)
    words = collections.Counter(re.findall(r"\w+", "\n".join(corpus)))
    return sorted(q for q, name in defined if words[name] <= definitions[name])


def test_the_scan_finds_dead_names():
    package = ("class Widget:\n    size: int = 0\n    spare_slot: int = 1\n"
               "    def __init__(self):\n        self.size = 2\n"
               "    def orphan_method(self):\n        return self.size\n"
               "def used_helper():\n    def inner_orphan():\n        return 1\n    return Widget()\n"
               "def lonely_helper():\n    return used_helper()\n")
    elsewhere = "from pkg import lonely_helper\nlonely_helper()\n"
    assert dead_names([package], [package, elsewhere]) == [
        "Widget.orphan_method", "Widget.spare_slot", "used_helper.inner_orphan"]
    assert dead_names([package], [package]) == [
        "Widget.orphan_method", "Widget.spare_slot", "lonely_helper", "used_helper.inner_orphan"]


def test_every_name_the_package_defines_is_named_elsewhere():
    root = Path(__file__).resolve().parents[1]
    package = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    corpus = [path.read_text(encoding="utf-8")
              for folder in ("src", "tests", "scripts", "bench")
              for path in sorted((root / folder).rglob("*.py"))]
    assert len(package) >= 15 and len(corpus) > len(package)
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
    assert found == {"richardson": 1, "stencil": 1}
