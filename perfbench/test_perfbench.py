"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_mtsica()
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9
    for n in (20, 200, 1000, 10000):
        tail = run.tail_percentile(n)
        values = list(range(1, n + 1))
        assert sum(v > run.percentile(values, tail) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50.0) == 50
    assert run.percentile(values, 95.0) == 95
    assert run.percentile([7.0], 95.0) == 7.0


def test_self_time_is_span_minus_its_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
             ["d", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_split_loss_grads_by_parent():
    tracer = tracing.Tracer()
    tracer.spans = [
        [tracing.FIT, 0.0, 10.0, -1],
        [tracing.ITERATION, 0.0, 6.0, 0],
        ["supervision.loss_grads", 0.5, 1.5, 1],        # theta step
        ["unmixing.compute_B", 2.0, 5.0, 1],
        ["supervision.loss_grads", 2.5, 4.5, 3],        # inside compute_B
        ["supervision.forward", 2.5, 3.0, 4],
        [tracing.SNAPSHOT, 6.0, 9.0, 0],
        ["supervision.loss_grads", 6.0, 6.25, 6],
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(tracer).items()}
    assert m["supervision.loss_grads_ms.theta"] == 1000.0
    assert m["supervision.loss_grads_ms.B"] == 2000.0
    assert m["supervision.loss_grads_ms.snapshot"] == 250.0
    assert m["solver.iteration_ms"] == 6000.0
    assert m["solver.self_ms"] == 2000.0           # 6 - 1 - 3
    assert m["unmixing.compute_B_ms"] == 3000.0
    assert m["solver.snapshot_ms"] == 3000.0
    assert m["supervision.forward_calls"] == 1.0


def _small(name, **solver):
    w = WORKLOADS[name]
    if name == "full_batch":
        return replace(w, config="eta_u = inf\niterations = 3\n")
    return replace(w, solver={**w.solver, **solver})


def test_traced_run_matches_untraced_and_removes_its_wrappers(tmp_path):
    before = tracing.originals()
    metrics, checks, details = run.run(
        _small("supervised", iterations=200, trace_every=100), seed=3,
        seconds=0.0, trace=True, work=tmp_path)
    assert [c for c in checks if not c[1]] == []
    assert details["passes"] == 1                 # untraced passes
    assert details["traced_spans"] > 0
    assert metrics["solver.iterations"][0] == 200
    assert metrics["solver.snapshots"][0] == 3
    assert metrics["unmixing.row_update_calls"][0] > 0
    after = tracing.originals()
    assert all(a[2] is b[2] for a, b in zip(before, after))


def test_untraced_pass_installs_no_wrapper(tmp_path):
    before = tracing.originals()
    seen = []

    class Spy(tracing.NullTracer):
        def cli(self, command, argv):
            seen.append(tracing.originals())
            return super().cli(command, argv)

    p = _small("full_batch").run(5, tmp_path, Spy())
    assert len(seen) == 4
    for current in seen:
        assert all(a[2] is b[2] for a, b in zip(before, current))
    assert all(ok for name, ok, _ in p.checks if "exits 0" in name)


def test_traced_cli_pass_sees_every_command(tmp_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _small("full_batch").run(5, tmp_path, tracer)
    names = {s[0] for s in tracer.spans}
    for name in ("cli.gen", "cli.fit", "cli.eval", "cli.baseline",
                 "synthgen.gen", "data.save", "data.load", tracing.FIT,
                 tracing.ITERATION, tracing.SNAPSHOT, "metrics.fobi"):
        assert name in names
    assert tracing.layer_metrics(tracer)["solver.iterations"][0] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_shape(name, tmp_path):
    ds0, mix0, cfg0 = WORKLOADS[name].inputs(0, tmp_path / "a")
    ds1, mix1, cfg1 = WORKLOADS[name].inputs(1, tmp_path / "b")
    assert ds0.signals.shape == ds1.signals.shape
    assert ds0.labels.shape == ds1.labels.shape
    assert ds0.targets == ds1.targets
    assert replace(cfg0, seed=1) == cfg1 and cfg0.seed == 0
    assert not np.array_equal(ds0.signals, ds1.signals)
    assert not np.array_equal(mix0, mix1)


def test_metric_names_match_benchmark_json():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    layer = tracing.layer_metrics(tracing.Tracer())
    layer["trace.overhead_frac"] = (0.0, "1")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
