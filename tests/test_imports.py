"""Lint-like guards on what the package imports, and where.

Importing any part of scipy costs ~0.4 s at start-up, more than a 48 x 48
solve's own set-up, so every command runs on numpy alone except the verify
command's divergence oracle, whose adaptive quadrature needs scipy.integrate.
The files of a run directory are written by the CLI alone, so no other
module needs the csv module. The library never imports the CLI: the CLI
is built on it, not the other way round. Sweeps run serially, so no module
imports threading or concurrent.futures. A solve's verdict (trivial,
local-min, mountain-pass or failed) is SolveReport.classification, decided
in solvers._report alone, the one function that builds a SolveReport: no
other module names the trivial cut TRIVIAL_L2 to decide one again.

The benchmark's tracer (perfbench/tracing.py) wraps the module-level
cho_factor and cho_solve names of solvers, experiments and spectral, and
fails in every traced run if one of those modules stops binding them. It
wraps only the functions a layer defines and lists in its __all__, so the
spans it records with tracing off (set-up time, and the classification of
every solve the benchmark's checks read) vanish silently if one of those
functions is renamed or un-exported.

Each command is a process of its own, so every module it loads is start-up
time and resident memory it pays for. hashlib would load OpenSSL (~3.6 MB
resident) for the sha256 inventory of a run directory, which CPython's
built-in SHA-256 computes alone, and numpy.polynomial (7-11 ms to import)
would serve only the eight Gauss-Legendre nodes of 2D assembly, which
fracops computes itself. A small 1D sweep and a 2D solve, run in a fresh
interpreter, load neither.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import fracvar
from fracvar import fracops


class _Imports(ast.NodeVisitor):
    """(module, enclosing function or None, imported name) per import of
    the package watched, and the names of dynamic import calls. A relative
    import is recorded by its absolute name (from .cli as fracvar.cli)."""

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
        elif node.module is not None:
            self._record(f"{fracvar.__name__}.{node.module}")
        else:
            for alias in node.names:
                self._record(f"{fracvar.__name__}.{alias.name}")

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


def test_no_module_imports_the_cli():
    found, _ = _package_imports("fracvar")
    assert ("cli", None, "fracvar.grid") in found  # relative imports are seen
    assert [entry for entry in found if entry[2].split(".")[:2] == ["fracvar", "cli"]] == []


def test_no_module_imports_threads():
    for watched in ("threading", "concurrent"):
        found, _ = _package_imports(watched)
        assert found == [], watched


def test_only_the_solvers_name_the_trivial_cut():
    naming = set()
    for path in sorted(Path(fracvar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
            if "TRIVIAL_L2" in names:
                naming.add(path.stem)
    assert naming == {"solvers"}


class _Calls(ast.NodeVisitor):
    """(enclosing function or None) per call of the name watched, by bare
    name or as an attribute."""

    def __init__(self, watched: str):
        self.watched, self.scope, self.found = watched, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if self.watched in (getattr(func, "id", None), getattr(func, "attr", None)):
            self.found.append(self.scope[-1] if self.scope else None)
        self.generic_visit(node)


def test_only_the_verdict_function_builds_a_solve_report():
    builders = set()
    for path in sorted(Path(fracvar.__file__).parent.glob("*.py")):
        calls = _Calls("SolveReport")
        calls.visit(ast.parse(path.read_text(), filename=str(path)))
        builders.update((path.stem, scope) for scope in calls.found)
    assert builders == {("solvers", "_report")}


def test_traced_modules_bind_the_dense_solves():
    for name in ("solvers", "experiments", "spectral"):
        module = importlib.import_module(f"fracvar.{name}")
        assert module.cho_factor is fracops.cho_factor, name
        assert module.cho_solve is fracops.cho_solve, name


def test_the_tracers_span_names_are_exported_functions():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = set(tracing.UNTRACED_SPANS) | set(tracing.RESULT_ATTRS)
    assert names
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"fracvar.{layer}")
        assert attr in module.__all__, name
        fn = getattr(module, attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def _config(path, domain, **sections):
    cfg = {"domain": domain, "operator": {"s": 0.5},
           "coefficient": {"family": "power", "params": {"A": 1.0, "B": 2.0, "p": 1.5}},
           "reaction": {"family": "saturating", "params": {"nu": 1.0}}, **sections}
    path.write_text(json.dumps(cfg))
    return str(path)


def test_commands_load_neither_openssl_nor_numpy_polynomial(tmp_path):
    sweep = _config(tmp_path / "sweep.json", {"bounds": [[0.0, 1.0]], "nodes": [64]},
                    sweep={"values": [0.02, 200.0]})
    solve = _config(tmp_path / "solve.json",
                    {"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [8, 8]},
                    forcing={"kind": "eigenfunction", "scale": 0.01}, solver={"tol_g": 1e-4})
    commands = [["sweep", "--config", sweep, "--out", str(tmp_path / "a")],
                ["solve", "--config", solve, "--out", str(tmp_path / "b")]]
    src = str(Path(fracvar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import json, sys\nfrom fracvar.cli import main\n"
            f"status = [main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([status, sorted({'_hashlib', 'numpy.polynomial'} & set(sys.modules))]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[0, 0], []]
