"""Checks on the package source itself, standard library only.

Every name an import statement binds in ``src/cohspace`` must be used in the
scope that imports it: the module for module-level imports, the function for
imports inside a function.  Names used only inside string annotations count.
"""

import ast
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
