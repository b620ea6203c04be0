"""Package layout: one import path per name, no runtime use of scipy
(the tests use it only as an oracle), and no unused import."""

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


def test_light_modules_import_without_scipy(tmp_path):
    # scipy is no runtime dependency: neither an import nor a gen, fit,
    # eval and baseline session loads it, and with scipy blocked the rate
    # guards (a continuous raw-power head and a log-power head) and demo 04
    # still run
    code = """
import sys
import mtsica.cli, mtsica.data, mtsica.metrics, mtsica.prng, mtsica.solver
import mtsica.supervision, mtsica.synthgen, mtsica.unmixing

def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

print(scipy_modules())
with open('cfg', 'w') as fh:
    fh.write('iterations=2\\nwindow=8\\nhop=4\\n')
for argv in [
        ['gen', '--recipe', 'supervision', '--seed', '0', '--out', 'd',
         '--trials', '4', '--channels', '3', '--samples', '32',
         '--targets', '1', '--window', '8', '--hop', '4'],
        ['fit', '--data', 'd', '--config', 'cfg', '--out', 'run'],
        ['eval', '--w', 'run/W.f64', '--mixing', 'd/mixing.f64'],
        ['baseline', '--data', 'd']]:
    assert mtsica.cli.main(argv) == 0, argv
print(scipy_modules())
"""
    out = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[0] == "[]"
    assert out.splitlines()[-1] == "[]"

    blocked = """
import runpy, sys
sys.modules['scipy'] = None
import numpy as np
from mtsica.solver import compute_rate_guards
from mtsica.supervision import FeatureMapConfig, SupervisedTargetModel
from mtsica.synthgen import gen_dataset

for log_power in (False, True):
    fm = FeatureMapConfig(window=8, hop=4, log_power=log_power)
    ds, _ = gen_dataset('supervision', 0, n_trials=4, channels=3,
                        samples=32, n_targets=1, kappa=1.0, fm_cfg=fm)
    assert ds.targets[0].kind == 'continuous'
    model = SupervisedTargetModel(ds.targets[0], np.ones(fm.dim(32)))
    g = compute_rate_guards(ds, [model], lam=1e-3, mu=0.0, fm_cfg=fm)
    assert 0.0 < g.eta_u_max < np.inf and 0.0 < g.eta_p_max < np.inf
runpy.run_path(sys.argv[1], run_name='__main__')
"""
    demo = Path(mtsica.__file__).parents[2] / "demos" / "04_descent_trace.py"
    out = subprocess.run([sys.executable, "-c", blocked, str(demo)], env=ENV,
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True).stdout
    assert "monotone: True" in out


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
