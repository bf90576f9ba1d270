"""Input checks are raised errors, so they hold under `python -O`, which
strips assert statements."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.mark.parametrize("setup,call", [
    ("from qdops.rings import poly_n", "poly_n(0)"),
    ("from qdops.exactscalar import TruncatedScalar", "TruncatedScalar(2, (1,))"),
    ("from qdops.opsym import generator; from qdops.rings import POLY_X",
     "generator('x', POLY_X) ** -1"),
])
def test_bad_call_raises_under_O(setup, call):
    prog = (f"{setup}\nfrom qdops.errors import EngineError\n"
            f"try:\n    {call}\nexcept EngineError as e:\n    print(e.name)\n"
            f"else:\n    print('returned')\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", prog], capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert (out.returncode, out.stdout) == (0, "DomainMismatch\n"), out.stderr


def test_no_assert_statements_in_the_package():
    found = [f"{p.name}:{node.lineno}"
             for p in sorted((SRC / "qdops").glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# modules that import names only to re-export them: an import there is
# not a read, or a dead function would stay alive through its re-export
_REEXPORTS = ("__init__.py", "kernel.py")


def _unread_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                bound[(a.asname or a.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in read]


def test_every_imported_name_is_read():
    found = [hit for p in sorted((SRC / "qdops").glob("*.py"))
             if p.name not in _REEXPORTS
             for hit in _unread_imports(p)]
    assert found == []


def _reads(path, strings):
    """(name, whether the read can reach a method) for the names a file
    reads: loaded names, which reach a method only when loaded directly in
    a class body (an alias such as `__radd__ = __add__`), loaded
    attributes, imported names outside `_REEXPORTS` and, with `strings`,
    string constants."""
    tree = ast.parse(path.read_text())
    in_class = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                for stmt in c.body
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                for n in ast.walk(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, id(node) in in_class
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True
        elif isinstance(node, ast.alias) and path.name not in _REEXPORTS:
            yield node.name.split(".")[-1], False
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value, True


def _definitions(tree):
    """(definition node, is a method) for every def and class in tree."""
    methods = {id(stmt) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for stmt in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, (id(node) in methods
                         and not isinstance(node, ast.ClassDef))


def test_every_defined_name_is_read():
    # string constants count inside the package: `_fold` reaches the
    # algebra handlers by a node's `_op` name.  A method is read only
    # through an attribute, a string or a name in a class body; a plain
    # name elsewhere is some function's, not the method's.
    package = sorted((SRC / "qdops").glob("*.py"))
    reads = {r for p in package for r in _reads(p, strings=True)}
    reads |= {r for d in ("tests", "perfbench")
              for p in sorted((ROOT / d).rglob("*.py"))
              for r in _reads(p, strings=False)}
    as_method = {name for name, method in reads if method}
    as_name = {name for name, _ in reads}
    found = [f"{p.name}:{node.lineno} {node.name}"
             for p in package
             for node, method in _definitions(ast.parse(p.read_text()))
             if not (node.name.startswith("__") and node.name.endswith("__"))
             and node.name not in (as_method if method else as_name)]
    assert found == []
