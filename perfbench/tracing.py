"""Spans around the calls into each mtsica module, for one traced pass.

The tracer replaces module attributes that mtsica looks up at call time
(``mtsica.solver.aux_exact``, ``mtsica.unmixing.row_update``, ...) with
wrappers that record a span per call, and puts the originals back when the
pass ends.  Nothing inside the package is edited.  Spans carry a name,
start, end and parent; they live in memory and are written out once the
pass is over.  Two kinds of span have no function to wrap and are driven by
events instead:

* ``solver.iteration`` runs from the end of the previous iteration (or of
  its snapshot) to the solver's iteration-hook call;
* ``solver.snapshot`` runs from the hook call of an iteration that records
  a trace row (for row 0: from the return of the initial full ``aux_exact``
  pass) to the return of the ``amari_distance`` call that ends the row.

Both need ground truth in the fit, which every workload passes.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import Counter

import numpy as np

ITERATION = "solver.iteration"
SNAPSHOT = "solver.snapshot"
FIT = "solver.fit"


class NullTracer:
    """The untraced path: plain calls, an iteration hook that only stamps
    the clock, and no module attribute replaced."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def fit(self, fn, dataset, config, ground_truth):
        stamps = []
        result = fn(dataset, config, ground_truth,
                    _iter_hook=lambda *_: stamps.append(time.perf_counter()))
        return result, stamps

    def cli(self, command, argv):
        return run_cli(argv)


def run_cli(argv):
    """``mtsica.cli.main`` with its standard output kept off ours."""
    import mtsica.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return mtsica.cli.main([str(a) for a in argv])


class Tracer:
    """Spans and counters for one traced pass.

    ``spans`` rows are ``[name, start, end, parent_index]`` (parent -1 for a
    root).  Calls nest on one thread, so the open spans form a stack.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._phases = None

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index) -> None:
        """Close ``index`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == index:
                return
        raise RuntimeError(f"span {index} is not open")

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def fit(self, fn, dataset, config, ground_truth):
        index = self.open(FIT)
        self._phases = _FitPhases(self, config)
        try:
            result = fn(dataset, config, ground_truth,
                        _iter_hook=self._phases.hook)
            return result, self._phases.stamps
        finally:
            self._phases = None
            self.close(index)

    def cli(self, command, argv):
        return self.call(f"cli.{command}", run_cli, argv)

    # events from the wrapped solver-level calls
    def aux_returned(self):
        if self._phases is not None:
            self._phases.aux_returned()

    def amari_returned(self):
        if self._phases is not None:
            self._phases.amari_returned()


class _FitPhases:
    """Opens and closes the iteration and snapshot spans of one fit."""

    def __init__(self, tracer, config):
        self.tracer = tracer
        self.iterations = config.iterations
        self.trace_every = config.trace_every
        self.k = 0
        self.open_index = None
        self.open_name = None
        self.started = False
        self.hooked = False
        self.stamps = []

    def _open(self, name):
        self.open_index = self.tracer.open(name)
        self.open_name = name

    def _close(self):
        if self.open_index is not None:
            self.tracer.close(self.open_index)
            self.open_index = self.open_name = None

    def _next_iteration(self):
        if self.k < self.iterations:
            self._open(ITERATION)

    def aux_returned(self):
        if not self.started:          # the initial full pass, before row 0
            self.started = True
            self._open(SNAPSHOT)

    def amari_returned(self):
        if self.open_name == SNAPSHOT:
            self._close()
            if self.hooked:           # row 0 is recorded before hook(0)
                self._next_iteration()

    def hook(self, k, *_):
        self.stamps.append(time.perf_counter())
        self._close()
        self.hooked = True
        self.k = k
        if k > 0 and (k % self.trace_every == 0 or k == self.iterations):
            self._open(SNAPSHOT)
        else:
            self._next_iteration()


# --- installing and removing the wrappers ---------------------------------

def _span(tracer, name, fn, after=None, errors=()):
    def wrapper(*args, **kwargs):
        try:
            result = tracer.call(name, fn, *args, **kwargs)
        except errors:
            tracer.counts["unmixing.factor_errors"] += 1
            raise
        if after is not None:
            after(args, result)
        return result
    return wrapper


def patch_targets():
    """``(owner, attribute)`` pairs the tracer replaces, in install order."""
    import mtsica.cli
    import mtsica.data
    import mtsica.linalg
    import mtsica.prng
    import mtsica.solver
    import mtsica.supervision
    import mtsica.unmixing

    cli, solver = mtsica.cli, mtsica.solver
    return [
        (mtsica.prng.Xoshiro256pp, "subset"),
        (cli, "gen_dataset"), (cli, "save_dataset"), (cli, "load_dataset"),
        (solver, "aux_exact"), (solver, "make_a_provider"),
        (solver, "compute_B"), (solver, "cyclic_sweep"),
        (mtsica.unmixing, "row_update"),
        (mtsica.unmixing.UnmixingState, "from_matrix"),
        (solver, "batch_loss_grads"), (mtsica.supervision, "batch_loss_grads"),
        (mtsica.supervision, "_forward"), (solver, "optimizer_step"),
        (solver, "amari_distance"), (cli, "amari_distance"), (cli, "fobi"),
        (cli, "evaluate_predictions"),
        (mtsica.linalg, "spectral_norm"), (mtsica.data, "spectral_norm"),
        (solver, "spectral_norm"),
        (cli, "fit_full_batch"), (cli, "fit_stochastic"),
    ]


def _dataset_bytes(dataset):
    return int(dataset.signals.nbytes + dataset.labels.nbytes)


def _wrapper_for(tracer, owner, attr, fn):
    import mtsica.solver
    from mtsica.unmixing import FactorizationError

    counts = tracer.counts

    def add(key, value):
        counts[key] += value

    if attr in ("fit_full_batch", "fit_stochastic"):
        def fit(dataset, config, ground_truth=None):
            return tracer.fit(fn, dataset, config, ground_truth)[0]
        return fit
    if attr == "make_a_provider":
        def provider(*args, **kwargs):
            a_of = tracer.call("unmixing.gather", fn, *args, **kwargs)
            return lambda comp: tracer.call("unmixing.a_build", a_of, comp)
        return provider
    if attr == "aux_exact":
        def after(args, result):
            add("likelihood.aux_entries", int(np.size(result)))
            tracer.aux_returned()
        return _span(tracer, "likelihood.aux", fn, after)
    if attr == "amari_distance" and owner is mtsica.solver:
        return _span(tracer, "metrics.amari", fn,
                     lambda args, result: tracer.amari_returned())
    if attr == "save_dataset":
        return _span(tracer, "data.save", fn, lambda args, result: add(
            "data.bytes_written", _dataset_bytes(args[0])))
    if attr == "load_dataset":
        return _span(tracer, "data.load", fn, lambda args, result: add(
            "data.bytes_read", _dataset_bytes(result)))
    if attr in ("row_update", "from_matrix"):
        return _span(tracer, f"unmixing.{attr}", fn,
                     errors=FactorizationError)
    names = {
        "subset": "prng.subset", "gen_dataset": "synthgen.gen",
        "compute_B": "unmixing.compute_B", "cyclic_sweep": "unmixing.sweep",
        "batch_loss_grads": "supervision.loss_grads",
        "_forward": "supervision.forward",
        "optimizer_step": "supervision.optimizer_step",
        "amari_distance": "metrics.amari", "fobi": "metrics.fobi",
        "evaluate_predictions": "metrics.eval",
        "spectral_norm": "linalg.spectral_norm",
    }
    return _span(tracer, names[attr], fn)


@contextlib.contextmanager
def installed(tracer):
    """Replace every patch target with its traced wrapper for the body of
    the ``with`` block; the originals are back when it exits."""
    saved = []
    try:
        for owner, attr in patch_targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    _wrapper_for(tracer, owner, attr, original.__func__))
            else:
                wrapped = _wrapper_for(tracer, owner, attr, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals():
    """The current objects at every patch target, to check nothing stays
    wrapped."""
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr in patch_targets()]


# --- turning spans into per-layer metrics ---------------------------------

def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls nest on a single thread), so
    the part of the interval they cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass as ``{name: (value, unit)}``.

    Times are totals over the pass; ``supervision.forward_calls`` is per
    solver iteration.
    """
    spans, counts = tracer.spans, tracer.counts
    busy, calls = Counter(), Counter()
    for name, start, end, _ in spans:
        busy[name] += end - start
        calls[name] += 1
    iteration_self = cli_self = 0.0
    for (name, *_), value in zip(spans, self_times(spans)):
        if name == ITERATION:
            iteration_self += value
        elif name.startswith("cli."):
            cli_self += value

    loss = Counter()
    forward_in_iterations = 0
    for i, (name, start, end, _) in enumerate(spans):
        if name == "supervision.loss_grads":
            up = list(_ancestors(spans, i))
            part = ("B" if "unmixing.compute_B" in up else
                    "snapshot" if SNAPSHOT in up else "theta")
            loss[part] += end - start
        elif name == "supervision.forward" and \
                ITERATION in _ancestors(spans, i):
            forward_in_iterations += 1

    def s(name):
        return (float(busy[name]), "s")

    def ms(name):
        return (1e3 * busy[name], "ms")

    def count(n):
        return (n, "count")

    iterations = calls[ITERATION]
    out = {
        "prng.subset_ms": ms("prng.subset"),
        "prng.subset_calls": count(calls["prng.subset"]),
        "synthgen.gen_s": s("synthgen.gen"),
        "data.save_s": s("data.save"),
        "data.load_s": s("data.load"),
        "data.bytes_read": (counts["data.bytes_read"], "bytes"),
        "data.bytes_written": (counts["data.bytes_written"], "bytes"),
        "likelihood.aux_ms": ms("likelihood.aux"),
        "likelihood.aux_entries": count(counts["likelihood.aux_entries"]),
        "unmixing.gather_ms": ms("unmixing.gather"),
        "unmixing.a_build_ms": ms("unmixing.a_build"),
        "unmixing.row_update_ms": ms("unmixing.row_update"),
        "unmixing.row_update_calls": count(calls["unmixing.row_update"]),
        "unmixing.slogdet_calls": count(calls["unmixing.from_matrix"]),
        "unmixing.factor_errors": count(counts["unmixing.factor_errors"]),
        "unmixing.compute_B_ms": ms("unmixing.compute_B"),
        "supervision.forward_calls":
            (forward_in_iterations / iterations if iterations else 0.0,
             "count/iter"),
        "supervision.optimizer_step_ms": ms("supervision.optimizer_step"),
        "solver.iteration_ms": ms(ITERATION),
        "solver.self_ms": (1e3 * iteration_self, "ms"),
        "solver.iterations": count(iterations),
        "solver.snapshot_ms": ms(SNAPSHOT),
        "solver.snapshots": count(calls[SNAPSHOT]),
        "metrics.amari_ms": ms("metrics.amari"),
        "metrics.amari_calls": count(calls["metrics.amari"]),
        "metrics.fobi_ms": ms("metrics.fobi"),
        "metrics.eval_ms": ms("metrics.eval"),
        "linalg.spectral_norm_calls": count(calls["linalg.spectral_norm"]),
        "cli.gen_s": s("cli.gen"),
        "cli.fit_s": s("cli.fit"),
        "cli.eval_s": s("cli.eval"),
        "cli.baseline_s": s("cli.baseline"),
        "cli.self_ms": (1e3 * cli_self, "ms"),
    }
    for part in ("theta", "B", "snapshot"):
        out[f"supervision.loss_grads_ms.{part}"] = (1e3 * loss[part], "ms")
    return out


def write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
