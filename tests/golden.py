"""Golden output values: ``gen`` of both recipes and four short fits.

``tests/golden.json`` holds the values these cases gave when they were
last recorded; ``test_golden.py`` recomputes them and compares.  To
record them again from the current code::

    python tests/golden.py --write

A change that moves any of them says in CHANGES.md which values moved
and by how much at most.

The cases stay small and well conditioned (3 iterations; the
supervision recipe at kappa = 1), since a fit can amplify a last-bit
difference many-fold per iteration, and numpy's SIMD ``log``/``exp`` and
OpenBLAS's kernels may differ in the last bits from one CPU to another:
OpenBLAS's kernels for other x86 CPUs moved these values by up to 1e-13
of their largest entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: use the package in src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mtsica.data import Dataset, TargetSchema  # noqa: E402
from mtsica.solver import SolverConfig, fit_stochastic  # noqa: E402
from mtsica.supervision import FeatureMapConfig  # noqa: E402
from mtsica.synthgen import gen_dataset  # noqa: E402

PATH = Path(__file__).with_name("golden.json")
# every value equals its recorded one to this much of the array's largest
# magnitude
REL = 1e-12

_FM = FeatureMapConfig(window=16, hop=8, log_power=True)


def _gen(recipe):
    if recipe == "multi_trial":
        return gen_dataset(recipe, 0, n_trials=6, channels=3, samples=200)
    return gen_dataset(recipe, 0, n_trials=6, channels=3, samples=64,
                       n_targets=2, kappa=1.0, fm_cfg=_FM)


def _gen_case(recipe):
    ds, mixing = _gen(recipe)
    values = {"mixing": mixing, "signals_head": ds.signals[:, :, :3],
              "signals_tail": ds.signals[-1, :, -3:]}
    if ds.n_targets:
        values["labels"] = ds.labels
    return values


def _supervised_dataset():
    """The supervision recipe's continuous target, and a categorical one of
    3 classes, which ``gen`` does not make: trial i is in class i % 3."""
    ds, mixing = gen_dataset("supervision", 1, n_trials=9, channels=3,
                             samples=64, n_targets=1, kappa=1.0, fm_cfg=_FM)
    labels = np.column_stack([ds.labels[:, 0], np.arange(ds.n_trials) % 3])
    targets = (ds.targets[0], TargetSchema("k", "categorical", n_classes=3))
    return Dataset(ds.signals, labels, targets), mixing


_FITS = {
    "exact": dict(eta_u=np.inf),
    "proximal": dict(eta_u=1.0, eta_a=1.0),
    "minibatch": dict(eta_u=0.5, batch_trials=4, batch_times=100),
    "supervised": dict(eta_u=0.5, eta_p=1e-3, lam=1e-3, mu=0.1,
                       optimizer="adamw", window=16, hop=8, log_power=True),
}


def _fit_case(kind):
    if kind == "supervised":
        ds, mixing = _supervised_dataset()
    else:
        ds, mixing = _gen("multi_trial")
    result = fit_stochastic(ds, SolverConfig(iterations=3, **_FITS[kind]),
                            ground_truth=mixing)
    values = {"w": result.w_state.w,
              "f": [r.f_value for r in result.trace.records]}
    for m, model in enumerate(result.models):
        values[f"theta_{m}"] = model.theta
    return values


CASES = {**{f"gen_{r}": (_gen_case, r)
            for r in ("multi_trial", "supervision")},
         **{f"fit_{k}": (_fit_case, k) for k in _FITS}}


def compute(name) -> dict:
    """The named case's values as float64 arrays."""
    fn, arg = CASES[name]
    return {key: np.asarray(v, dtype=np.float64)
            for key, v in fn(arg).items()}


def recorded() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record the values in {PATH.name}")
    if not parser.parse_args(argv).write:
        parser.error("pass --write to record the values")
    # json writes each float as its shortest round-tripping repr
    values = {name: {key: v.tolist() for key, v in compute(name).items()}
              for name in CASES}
    PATH.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} cases to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
