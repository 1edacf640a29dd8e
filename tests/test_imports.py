"""Lint-like guards on what the package imports, and where.

Importing any part of scipy costs ~0.4 s at start-up, more than a 48 x 48
solve's own set-up, so every command runs on numpy alone except the verify
command's divergence oracle, whose adaptive quadrature needs scipy.integrate.
The files of a run directory are written by the CLI alone, so no other
module needs the csv module.
"""

import ast
from pathlib import Path

import fracvar


class _Imports(ast.NodeVisitor):
    """(module, enclosing function or None, imported name) per import of
    the package watched, and the names of dynamic import calls."""

    def __init__(self, module: str, watched: str):
        self.module, self.watched = module, watched
        self.scope, self.found, self.dynamic = [], [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _record(self, name):
        if name and name.split(".")[0] == self.watched:
            self.found.append((self.module, self.scope[-1] if self.scope else None, name))

    def visit_Import(self, node):
        for alias in node.names:
            self._record(alias.name)

    def visit_ImportFrom(self, node):
        if node.level == 0:
            self._record(node.module)

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("__import__", "import_module"):
            self.dynamic.append((self.module, name))
        self.generic_visit(node)


def _package_imports(watched: str):
    """The imports of watched, and the dynamic import calls, over the
    package's modules."""
    found, dynamic = [], []
    for path in sorted(Path(fracvar.__file__).parent.glob("*.py")):
        visitor = _Imports(path.stem, watched)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
        dynamic += visitor.dynamic
    return found, dynamic


def test_only_the_divergence_oracle_imports_scipy():
    found, dynamic = _package_imports("scipy")
    assert found == [("experiments", "_divergence_oracle_check", "scipy.integrate")]
    assert dynamic == []


def test_only_the_cli_imports_csv():
    found, _ = _package_imports("csv")
    assert [entry for entry in found if entry[0] != "cli"] == []
