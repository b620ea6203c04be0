"""Run one mtsica benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload supervised --seed 0 --seconds 20 \
        --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy.  Passes of the workload repeat, all on the same seed,
until ``--seconds`` have gone by (at least two without tracing).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, medians over the passes.  With ``--trace 1`` one
untraced pass is followed by one traced pass, and the object carries the
per-layer metrics of the traced pass.  The line before it holds the run's
details: environment, sample counts, check results and workload-specific
numbers.  Every pass checks its outputs; the bytes of W, the heads and the
timing-free trace columns must match across all passes of the run, traced
or not.  Any failed check makes the exit code 1.  Scratch files, results
and spans go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
SETUP_REPEATS = 3     # extra dataset builds before each pass and at the end
MIN_BEYOND = 10


def tail_percentile(n, ladder=PERCENTILES, beyond=MIN_BEYOND):
    """Highest percentile of ``ladder`` with at least ``beyond`` of ``n``
    samples above its nearest-rank position, or None."""
    ok = [p for p in ladder if n - _rank(p, n) >= beyond]
    return max(ok) if ok else None


def _rank(p, n):
    """1-based nearest-rank position of percentile ``p`` (a multiple of
    0.1) among ``n`` samples, in integer arithmetic."""
    return -(-round(p * 10) * n // 1000)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, _rank(p, len(ordered)) - 1)]


def import_mtsica(root=ROOT):
    """Import mtsica from ``<root>/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "mtsica" / "__init__.py").is_file():
        raise ImportError(f"no mtsica package under {src}")
    sys.path.insert(0, str(src))
    import mtsica

    if Path(mtsica.__file__).resolve().parent != (src / "mtsica").resolve():
        raise ImportError(f"mtsica imported from {mtsica.__file__}")
    return mtsica


def _blas():
    import ctypes

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"blas": f"{info.get('name')} {info.get('version')}",
           "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["blas_threads"] = fn()
                return out
    return out


def _git(root):
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status",
                                 "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment(root=ROOT):
    import numpy
    import scipy

    ram_mb = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                ram_mb = int(line.split()[1]) // 1024
    env = {"nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "ram_mb": ram_mb, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    env.update(_blas())
    env.update(_git(root))
    return env


E2E_UNITS = {"setup_s": "s", "fit_s": "s", "total_s": "s",
             "iter_ms_mean": "ms", "iter_ms_p95": "ms", "peak_rss_mb": "MB"}


def end_to_end(passes, setups):
    """End-to-end metrics: medians over the passes (and, for ``setup_s``,
    the extra set-ups too), the mean and p95 of the pooled iteration times,
    and the peak RSS of this process.

    The iteration mean stands in for the median: on a host that switches
    between two speed states for hundreds of iterations at a time, the
    iteration times are bimodal and their median jumps between the modes
    from run to run, while the mean moves with the share of time in each.
    """
    samples = [x for p in passes for x in p.iter_ms]
    med = statistics.median
    values = {
        "setup_s": med([p.setup_s for p in passes] + setups),
        "fit_s": med(p.fit_s for p in passes),
        "total_s": med(p.total_s for p in passes),
        "iter_ms_mean": statistics.fmean(samples),
        "iter_ms_p95": percentile(samples, 95.0),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def run(workload, seed, seconds, trace, work):
    """Run the passes; return ``(metrics, checks, details)``."""
    import tracing
    from workloads import fresh_dir

    def extra_setups():
        # Spread over the run: the host's speed changes over seconds, and
        # set-ups made back to back would all catch the same state.
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(seed, fresh_dir(work / "setup"))
            setups.append(time.perf_counter() - t0)

    before = tracing.originals()
    setups, passes, start = [], [], time.perf_counter()
    while len(passes) < (1 if trace else 2) or \
            time.perf_counter() - start < seconds:
        extra_setups()
        passes.append(workload.run(seed, fresh_dir(work / "pass"),
                                   tracing.NullTracer()))
        if not all(ok for _, ok, _ in passes[-1].checks):
            break
    extra_setups()
    checks = [c for p in passes for c in p.checks]
    details = {"passes": len(passes), "setup_s_extra": setups,
               "fit_s_passes": [p.fit_s for p in passes]}
    metrics = {}
    if all(ok for _, ok, _ in checks):
        samples = [x for p in passes for x in p.iter_ms]
        tail = tail_percentile(len(samples))
        checks.append(("enough iteration samples for p95",
                       tail is not None and tail >= 95.0, f"{len(samples)}"))
        details.update(iter_samples=len(samples),
                       iter_ms_p50=percentile(samples, 50.0),
                       iter_tail_percentile=tail,
                       iter_ms_tail=percentile(samples, tail) if tail else None)
        details["final_amari"] = statistics.median(
            p.final_amari for p in passes)
        for key in passes[0].extra:
            details[key] = statistics.median(p.extra[key] for p in passes)
        metrics = end_to_end(passes, setups)
    if trace and all(ok for _, ok, _ in checks):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = workload.run(seed, fresh_dir(work / "pass"), tracer)
        tracing.write_spans(tracer, work / "spans.csv")
        checks.extend((f"traced: {n}", ok, d) for n, ok, d in traced.checks)
        passes.append(traced)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (
            traced.fit_s / statistics.median(p.fit_s for p in passes[:-1])
            - 1.0, "1")
        details["traced_spans"] = len(tracer.spans)
    checks.append(("no tracer wrapper left installed",
                   all(a is b for (*_, a), (*_, b)
                       in zip(before, tracing.originals())), ""))
    digests = [p.digest for p in passes if p.digest]
    checks.append(("W, heads and trace bytes identical across passes",
                   len(digests) == len(passes) and len(set(digests)) == 1,
                   f"{len(set(digests))} distinct of {len(passes)}"))
    details["digest"] = digests[0] if digests else None
    return metrics, checks, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_mtsica()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, fresh_dir

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = fresh_dir(ROOT / ".bench_work" /
                  f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = environment()
    metrics, checks, details = run(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), work)
    failed = sum(not ok for _, ok, _ in checks)
    result = {"correct": failed == 0, "attempted": len(checks),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    details.update(workload=args.workload, seed=args.seed,
                   trace=args.trace, environment=env,
                   failed_checks=[[n, d] for n, ok, d in checks if not ok])
    (work / "result.json").write_text(
        json.dumps({"details": details, "checks": checks, **result},
                   indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
