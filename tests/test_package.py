"""Package layout: one import path per name, scipy only where used, and
no unused import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mtsica

# the child imports the same copy of the package as this process
ENV = {**os.environ, "PYTHONPATH": str(Path(mtsica.__file__).parents[1])}


def test_package_namespace_holds_only_the_version():
    assert mtsica.__version__
    # a bare import loads no submodule, so no name is re-exported
    code = ("import mtsica; print(sorted(n for n in vars(mtsica) "
            "if not n.startswith('__')))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_light_modules_import_without_scipy():
    # scipy is loaded by the solver's Cholesky steps, synthgen's Hilbert
    # matrix and linalg's Lanczos call only
    code = ("import sys, mtsica.prng, mtsica.data, mtsica.supervision, "
            "mtsica.metrics; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_modules_use_every_name_they_import():
    # cli imports fit_full_batch unused: perfbench's tracer patches
    # cli.fit_full_batch
    allowed = {("cli", "fit_full_batch")}
    unused = []
    for path in sorted(Path(mtsica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.stem, name) for name in bound
                   if name not in used and (path.stem, name) not in allowed]
    assert unused == []


def test_every_public_name_has_a_caller_outside_tests():
    # a public def or class, top-level or a method, that only the tests
    # use is test-only surface
    package = Path(mtsica.__file__).parent
    root = package.parents[1]
    used = set()
    for path in [*package.glob("*.py"), *(root / "demos").glob("*.py"),
                 *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    defs = (ast.FunctionDef, ast.ClassDef)
    uncalled = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = [top] + (top.body if isinstance(top, ast.ClassDef) else [])
            uncalled += [(path.stem, node.name) for node in nodes
                         if isinstance(node, defs)
                         and not node.name.startswith("_")
                         and node.name not in used]
    assert uncalled == []
