"""The benchmark's workloads and the checks on their outputs.

One pass of a workload makes its inputs from the seed, runs mtsica on them
through the library or the CLI, and checks what comes out.  The seed picks
the dataset and the fit's random stream; it never changes a size, an
iteration count or a setting.

Why these workloads (each stresses modules the other bypasses):

* ``supervised`` -- one fit of the acceptance suite's supervision test at
  lambda = 3e-5, which dominates the suite's time.  The work is the
  ``supervision`` feature forwards and adjoint, ``unmixing.compute_B`` and
  the minibatch gathers; it also scores the heads on a 20% holdout.
* ``full_batch`` -- the CLI ``gen -> fit -> eval -> baseline`` path on the
  ``multi_trial`` recipe at its defaults, full batch with no proximal tie.
  The work is the A_c build over every column, the exact aux refresh of
  every entry and a full-data snapshot per iteration; it draws nothing from
  ``prng`` and runs no supervision.

The README quick start is not a workload: its iteration times track the
host's speed state so closely that ten runs spread by about 20%.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TARGET_AMARI = 1.0
FOBI_FACTOR = 0.1     # full_batch must end at or below this x per-trial FOBI
HOLDOUT = 0.2         # trailing share of trials the heads are scored on


@dataclass
class Pass:
    """Timings, outputs and check results of one pass."""

    setup_s: float
    fit_s: float
    total_s: float
    iter_ms: list
    final_amari: float
    digest: str
    checks: list = field(default_factory=list)   # (name, ok, detail)
    extra: dict = field(default_factory=dict)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _f64(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass(frozen=True)
class LibraryWorkload:
    """``gen_dataset``, ``fit_stochastic`` and holdout scoring of the heads
    through the Python API."""

    name: str
    recipe: str
    gen: dict
    solver: dict

    def inputs(self, seed, work=None, tracer=None):
        """``(dataset, mixing, config)`` for ``seed``; the dataset is made
        inside a ``synthgen.gen`` span when a tracer is given."""
        import mtsica.synthgen
        from mtsica.solver import SolverConfig
        from tracing import NullTracer

        config = SolverConfig(seed=seed, **self.solver)
        dataset, mixing = (tracer or NullTracer()).call(
            "synthgen.gen", mtsica.synthgen.gen_dataset, self.recipe, seed,
            fm_cfg=config.feature_config, **self.gen)
        return dataset, mixing, config

    def setup(self, seed, work: Path):
        self.inputs(seed)

    def run(self, seed, work: Path, tracer) -> Pass:
        import mtsica.metrics
        from mtsica.solver import SolverAbort, fit_stochastic

        t0 = time.perf_counter()
        dataset, mixing, config = self.inputs(seed, tracer=tracer)
        t1 = time.perf_counter()
        try:
            result, stamps = tracer.fit(fit_stochastic, dataset, config,
                                        mixing)
        except SolverAbort as e:
            p = Pass(t1 - t0, math.nan, math.nan, [], math.nan, "")
            p.check("fit completes", False, str(e))
            return p
        t2 = time.perf_counter()
        n_hold = math.ceil(HOLDOUT * dataset.n_trials)
        scores = tracer.call(
            "metrics.eval", mtsica.metrics.evaluate_predictions,
            result.w_state.w, result.models, dataset, config.feature_config,
            np.arange(dataset.n_trials - n_hold, dataset.n_trials))
        holdout = float(np.mean([s.value for s in scores]))
        t3 = time.perf_counter()

        trace_path = work / "trace.csv"
        result.trace.to_csv(trace_path, include_timing=False)
        digest = _digest([_f64(result.w_state.w)]
                         + [_f64(m.theta) for m in result.models]
                         + [trace_path.read_bytes()])
        final = result.trace.final()
        p = Pass(t1 - t0, t2 - t1, t3 - t0,
                 [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])],
                 final.amari, digest)
        p.check("fit completes", True)
        values = [v for r in result.trace.records
                  for v in (r.loss_unsup, r.loss_sup, r.f_value, r.amari)
                  if v is not None]
        p.check("trace losses finite", all(map(math.isfinite, values)))
        p.extra["holdout_rmse"] = holdout
        p.check("holdout rmse finite", math.isfinite(holdout),
                f"{holdout:.6g}")
        return p


@dataclass(frozen=True)
class CliWorkload:
    """``mtsica gen``, ``fit``, ``eval`` and ``baseline`` as a user runs
    them, in this process so the tracer can see the calls."""

    name: str
    recipe: str
    config: str

    def _gen_argv(self, seed, data):
        return ["gen", "--recipe", self.recipe, "--seed", seed, "--out", data]

    def setup(self, seed, work: Path):
        from tracing import run_cli

        if run_cli(self._gen_argv(seed, fresh_dir(work / "data"))) != 0:
            raise RuntimeError("mtsica gen failed")

    def inputs(self, seed, work: Path):
        from mtsica.cli import build_solver_config, parse_config_file
        from mtsica.data import load_dataset, read_matrix_f64

        self.setup(seed, work)
        cfg = work / "fit.cfg"
        cfg.write_text(self.config, encoding="utf-8")
        config = build_solver_config({**parse_config_file(cfg),
                                      "seed": seed})
        return (load_dataset(work / "data"),
                read_matrix_f64(work / "data" / "mixing.f64"), config)

    def run(self, seed, work: Path, tracer) -> Pass:
        data, run = fresh_dir(work / "data"), fresh_dir(work / "run")
        cfg = work / "fit.cfg"
        cfg.write_text(self.config, encoding="utf-8")
        eval_csv, base_csv = work / "eval.csv", work / "baseline.csv"
        steps = [
            ("gen", self._gen_argv(seed, data)),
            ("fit", ["fit", "--data", data, "--config", cfg, "--seed", seed,
                     "--out", run, "--timing"]),
            ("eval", ["eval", "--w", run / "W.f64", "--mixing",
                      data / "mixing.f64", "--out", eval_csv]),
            ("baseline", ["baseline", "--data", data, "--mode", "per_trial",
                          "--out", base_csv]),
        ]
        times, codes = [time.perf_counter()], {}
        for command, argv in steps:
            codes[command] = tracer.cli(command, argv)
            times.append(time.perf_counter())

        p = Pass(times[1] - times[0], times[2] - times[1],
                 times[-1] - times[0], [], math.nan, "")
        for command, code in codes.items():
            p.check(f"{command} exits 0", code == 0, f"exit {code}")
        if codes["fit"] != 0:
            return p
        rows = [line.split(",") for line in
                (run / "trace.csv").read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")][1:]
        amari = [float(r[4]) for r in rows]
        wall_ms = [float(r[5]) for r in rows]
        p.iter_ms = [b - a for a, b in zip(wall_ms, wall_ms[1:])]
        p.final_amari = amari[-1]
        thetas = sorted(run.glob("theta_*.f64"))
        timing_free = "\n".join(
            line.rsplit(",", 1)[0] for line in
            (run / "trace.csv").read_text(encoding="utf-8").splitlines())
        p.digest = _digest([(run / "W.f64").read_bytes()]
                           + [t.read_bytes() for t in thetas]
                           + [timing_free.encode()])

        reached = next((w for a, w in zip(amari, wall_ms)
                        if a <= TARGET_AMARI), None)
        p.check(f"reaches amari <= {TARGET_AMARI}", reached is not None)
        if reached is not None:
            p.extra["time_to_target_s"] = reached / 1e3
        if codes["baseline"] == 0:
            fobi_mean = next(float(line.split(",")[1]) for line in
                             base_csv.read_text(encoding="utf-8").splitlines()
                             if line.startswith("mean,"))
            p.extra["fobi_mean_amari"] = fobi_mean
            p.check(f"final amari <= {FOBI_FACTOR} x per-trial FOBI",
                    p.final_amari <= FOBI_FACTOR * fobi_mean,
                    f"{p.final_amari:.6g} vs {fobi_mean:.6g}")
        if codes["eval"] == 0:
            evaluated = eval_csv.read_text(encoding="utf-8").splitlines()[-1]
            p.check("eval amari equals the trace's last row",
                    evaluated.split(",")[1] == rows[-1][4],
                    evaluated)
        return p


WORKLOADS = {w.name: w for w in [
    LibraryWorkload(
        "supervised",
        recipe="supervision",
        gen=dict(n_trials=500, channels=6, samples=256, n_targets=2,
                 kappa=5.0),
        solver=dict(iterations=1000, eta_u=1e-3, eta_p=1e-3, lam=3e-5,
                    optimizer="adamw", batch_trials=128, batch_times=128,
                    trace_every=1000, log_power=True)),
    CliWorkload(
        "full_batch",
        recipe="multi_trial",
        # seeds 0-59 first reach Amari <= 1 between k = 125 and k = 252
        config="eta_u = inf\niterations = 350\n"),
]}
