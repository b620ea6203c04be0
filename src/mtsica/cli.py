"""Command-line interface.

Subcommands::

    mtsica gen       synthesize a dataset directory (+ mixing ground truth)
    mtsica fit       fit the joint model, write W / thetas / trace
    mtsica eval      Amari against ground truth, or holdout prediction
    mtsica baseline  FOBI per-trial or on concatenated trials

Exit codes: 0 success, 2 usage, config or file-format problems (a config
is checked against the dataset before the first iteration), 3 numerical
abort (the partial trace is still flushed).  All randomness derives from
``--seed``; two invocations with identical arguments produce byte-identical
outputs (pass ``--timing`` to record wall-clock times in the trace, which
naturally breaks that).
"""

from __future__ import annotations

import argparse
import math
import sys
import typing
from dataclasses import replace
from pathlib import Path
from typing import Literal, Optional, Union

import numpy as np

from . import __version__
from .data import (Dataset, DatasetFormatError, concat_trials, load_dataset,
                   preprocess, read_matrix_f64, save_dataset,
                   write_matrix_f64, write_matrix_text)
from .metrics import amari_distance, evaluate_predictions, fobi
# fit_full_batch is unused here; the benchmark harness's tracer patches it
from .solver import (SolverAbort, SolverConfig, check_inputs, fit_full_batch,
                     fit_stochastic)
from .supervision import (_ADAM_EPS, _BETA1, _BETA2, _LOG_EPS,
                          FeatureMapConfig, SupervisedTargetModel,
                          theta_shape)
from .synthgen import RECIPES, gen_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


# --- flat key=value config files ----------------------------------------

_FIELD_TYPES = typing.get_type_hints(SolverConfig)
# file keys mirror SolverConfig fields, except 'lambda' (Python keyword)
_KEY_TO_FIELD = {("lambda" if f == "lam" else f): f for f in _FIELD_TYPES}
# run-level switches, read by both fit and eval --run
_RUN_KEYS = ("preprocess_center", "preprocess_rescale")
# retired keys whose old default is now a constant of mtsica.supervision;
# a file may repeat that value, and no other
_FIXED_KEYS = {"beta1": _BETA1, "beta2": _BETA2, "eps": _ADAM_EPS,
               "log_eps": _LOG_EPS}
# keys of removed options that older config.resolved files carry; each is
# still checked against its old type, then ignored, except where its value
# changed the fit (see parse_config_file)
_RETIRED_KEYS = {
    "lipschitz_lm": Optional[float],
    "lipschitz_ltheta": Optional[float],
    "update_order": Literal["theta_first", "aux_first"],
    "stochastic": bool,
    "aux_mode": Literal["exact", "proximal"],
    **dict.fromkeys(_FIXED_KEYS, float),
}
_KEY_TYPES = {**{k: _FIELD_TYPES[f] for k, f in _KEY_TO_FIELD.items()},
              **dict.fromkeys(_RUN_KEYS, bool), **_RETIRED_KEYS}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind = _KEY_TYPES[key]
    if typing.get_origin(kind) is Union:  # Optional[...]
        if raw.lower() == "none":
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is Literal:
        if raw not in typing.get_args(kind):
            raise CliError(f"config key {key}: expected one of "
                           f"{', '.join(typing.get_args(kind))}, got {raw!r}")
        return raw
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise CliError(f"config key {key}: expected a boolean, got {raw!r}")
    if kind is str:
        return raw
    try:
        return kind(raw)  # int or float; float accepts inf
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise CliError(f"config key {key}: expected {expected}, "
                       f"got {raw!r}") from None


def parse_config_file(path) -> dict:
    """Parse a flat key=value config file into a raw option dict.

    Blank lines and ``#`` comments are ignored.  Unknown or duplicate keys
    are hard errors so typos cannot silently fall back to defaults.
    """
    opts: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _KEY_TYPES:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in opts:
            raise CliError(f"{path}:{lineno}: duplicate config key {key!r}")
        opts[key] = _parse_value(key, raw)
    if opts.get("stochastic") is False:  # those fits ignored batch sizes
        opts.update(batch_trials=None, batch_times=None)
    if opts.get("aux_mode") == "exact":  # those fits ignored eta_a
        opts["eta_a"] = math.inf
    elif opts.get("aux_mode") == "proximal":
        opts.setdefault("eta_a", 1.0)  # the old default
    for key, value in _FIXED_KEYS.items():
        if opts.get(key, value) != value:
            raise CliError(f"invalid configuration: {key} is fixed at "
                           f"{value!r}, got {opts[key]!r}")
    for key in _RETIRED_KEYS:
        opts.pop(key, None)
    return opts


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def resolved_config_lines(config: SolverConfig, extras: dict) -> list:
    """Canonical key=value lines (sorted) for embedding in outputs."""
    items = {}
    for key, field in _KEY_TO_FIELD.items():
        items[key] = getattr(config, field)
    items.update(extras)
    return [f"{k}={_fmt_value(v)}" for k, v in sorted(items.items())]


def build_solver_config(opts: dict) -> SolverConfig:
    kwargs = {_KEY_TO_FIELD[k]: v for k, v in opts.items()
              if k in _KEY_TO_FIELD}
    try:
        return SolverConfig(**kwargs)
    except ValueError as e:
        raise CliError(f"invalid configuration: {e}") from e


def _read_run_options(opts: dict, dataset: Dataset):
    """``(config, extras, dataset)`` of a parsed option dict: the solver
    config, the run-level switches (absent ones are off) and the dataset
    with the preprocessing switches applied."""
    config = build_solver_config(opts)
    extras = {k: bool(opts.get(k, False)) for k in _RUN_KEYS}
    if extras["preprocess_center"] or extras["preprocess_rescale"]:
        dataset, _ = preprocess(dataset, center=extras["preprocess_center"],
                                rescale=extras["preprocess_rescale"])
    return config, extras, dataset


# --- subcommand implementations -----------------------------------------

def cmd_gen(args) -> int:
    overrides = dict(n_trials=args.trials, channels=args.channels,
                     samples=args.samples, n_targets=args.targets,
                     kappa=args.kappa)
    fm_kwargs = {}
    if args.window is not None:
        fm_kwargs["window"] = args.window
    if args.hop is not None:
        fm_kwargs["hop"] = args.hop
    if args.log_power:
        fm_kwargs["log_power"] = True
    try:
        fm_cfg = FeatureMapConfig(**fm_kwargs) if fm_kwargs else None
        dataset, mixing = gen_dataset(args.recipe, args.seed,
                                      fm_cfg=fm_cfg, **overrides)
    except ValueError as e:
        raise CliError(str(e)) from e
    out = Path(args.out)
    generator = {"recipe": args.recipe, "seed": args.seed}
    generator.update({k: v for k, v in overrides.items() if v is not None})
    generator.update(fm_kwargs)
    save_dataset(dataset, out, generator=generator)
    write_matrix_f64(out / "mixing.f64", mixing)
    header = [f"mtsica {__version__} mixing ground truth"] + [
        f"{k}={_fmt_value(v)}" for k, v in sorted(generator.items())]
    write_matrix_text(out / "mixing.txt", mixing, header)
    print(f"wrote {dataset.n_trials} trials "
          f"({dataset.channels} ch x {dataset.samples} samples, "
          f"{dataset.n_targets} targets) to {out}")
    return EXIT_OK


def _load_dataset(path) -> Dataset:
    try:
        return load_dataset(path)
    except DatasetFormatError as e:
        raise CliError(f"bad dataset {path}: {e}") from e


def _load_run_inputs(args):
    dataset = _load_dataset(args.data)
    opts = parse_config_file(args.config) if args.config else {}
    # command-line flags override file values
    if args.seed is not None:
        opts["seed"] = args.seed
    if args.center:
        opts["preprocess_center"] = True
    if args.rescale:
        opts["preprocess_rescale"] = True
    config, extras, dataset = _read_run_options(opts, dataset)

    gt_path = args.ground_truth
    if gt_path is None:
        candidate = Path(args.data) / "mixing.f64"
        if candidate.is_file():
            gt_path = candidate
    ground_truth = None
    if gt_path is not None:
        try:
            ground_truth = read_matrix_f64(gt_path)
        except (DatasetFormatError, OSError) as e:
            raise CliError(f"bad mixing file {gt_path}: {e}") from e
    _check_inputs(args.data, dataset, config, ground_truth)
    return dataset, config, extras, ground_truth


def _check_inputs(data_path, dataset, config, ground_truth=None):
    try:
        check_inputs(dataset, config, ground_truth)
    except ValueError as e:
        raise CliError(f"invalid configuration for {data_path}: {e}") from e


def _run_single_fit(dataset, config, extras, ground_truth, out_dir,
                    timing: bool):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = resolved_config_lines(config, extras)
    try:
        result = fit_stochastic(dataset, config, ground_truth)
    except SolverAbort as e:
        e.trace.to_csv(out / "trace.csv", lines, include_timing=timing)
        _write_fit_outputs(out, e.w_state, e.models, lines, dataset,
                           aborted=str(e))
        return None
    result.trace.to_csv(out / "trace.csv", lines, include_timing=timing)
    _write_fit_outputs(out, result.w_state, result.models, lines, dataset,
                       aborted=None)
    return result


def _write_fit_outputs(out, w_state, models, config_lines, dataset, aborted):
    banner = [f"mtsica {__version__} fit output"]
    if aborted:
        banner.append(f"aborted: {aborted}")
    header = banner + config_lines
    write_matrix_f64(out / "W.f64", w_state.w)
    write_matrix_text(out / "W.txt", w_state.w, header)
    for m, model in enumerate(models):
        write_matrix_f64(out / f"theta_{m}.f64", model.theta)
        write_matrix_text(out / f"theta_{m}.txt", model.theta,
                          header + [f"target={model.schema.name}"])
    (out / "config.resolved").write_text(
        "\n".join(config_lines) + "\n", encoding="utf-8")
    inventory = [
        f"status={'aborted' if aborted else 'ok'}",
        f"W.f64 shape: {w_state.w.shape[0]} {w_state.w.shape[1]}",
    ]
    for m, model in enumerate(models):
        shape = " ".join(str(s) for s in np.atleast_2d(model.theta).shape)
        inventory.append(f"theta_{m}.f64 ({model.schema.name}) shape: {shape}")
    (out / "run.txt").write_text(
        "\n".join(banner + config_lines + inventory) + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    dataset, config, extras, ground_truth = _load_run_inputs(args)
    if args.seeds is None:
        result = _run_single_fit(dataset, config, extras, ground_truth,
                                 args.out, args.timing)
        if result is None:
            print("fit aborted numerically; partial outputs written",
                  file=sys.stderr)
            return EXIT_NUMERICAL
        final = result.trace.final()
        msg = (f"fit done: k={final.k} loss_unsup={final.loss_unsup:.6g} "
               f"loss_sup={final.loss_sup:.6g}")
        if final.amari is not None:
            msg += f" amari={final.amari:.6g}"
        print(msg)
        return EXIT_OK

    lo, hi = _parse_seed_range(args.seeds)
    seeds = list(range(lo, hi + 1))
    failures = [s for s in seeds
                if _run_single_fit(dataset, replace(config, seed=s), extras,
                                   ground_truth, Path(args.out) / f"seed_{s}",
                                   args.timing) is None]
    print(f"seed sweep {lo}..{hi}: {len(seeds) - len(failures)} ok, "
          f"{len(failures)} aborted")
    if failures:
        print(f"aborted seeds: {failures}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _parse_seed_range(text: str):
    parts = text.split("..")
    if len(parts) != 2:
        raise CliError(f"--seeds expects A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"--seeds expects integers, got {text!r}") from None
    if hi < lo:
        raise CliError(f"--seeds range is empty: {text}")
    return lo, hi


def _emit_rows(out_path, comment_lines, header, rows):
    lines = [f"# {c}" for c in comment_lines]
    lines.append(header)
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    if args.w:
        if not args.mixing:
            raise CliError("--w requires --mixing for the ground truth")
        mixing = _read_matrix_checked(args.mixing)
        values = []
        rows = []
        for path in args.w:
            w = _read_matrix_checked(path)
            try:
                d = amari_distance(w, mixing)
            except ValueError as e:
                raise CliError(f"{path}: {e}") from e
            values.append(d)
            rows.append(f"{path},{d:.17g}")
        if len(values) > 1:
            rows.append(f"mean,{np.mean(values):.17g}")
            rows.append(f"median,{np.median(values):.17g}")
        comments = ([f"mtsica {__version__} eval (amari)",
                     f"mixing={args.mixing}"])
        _emit_rows(args.out, comments, "w_file,amari", rows)
        return EXIT_OK

    if not (args.run and args.data and args.holdout is not None):
        raise CliError("eval needs either --w/--mixing or --run/--data/--holdout")
    if not 0.0 < args.holdout <= 1.0:
        raise CliError("--holdout must be a fraction in (0, 1]")
    dataset = _load_dataset(args.data)
    run = Path(args.run)
    resolved = run / "config.resolved"
    if not resolved.is_file():
        raise CliError(f"{run} has no config.resolved (not a fit output?)")
    config, extras, dataset = _read_run_options(parse_config_file(resolved),
                                                dataset)
    w = _read_matrix_checked(run / "W.f64")
    if w.shape != (dataset.channels, dataset.channels):
        raise CliError("W.f64 does not match the dataset channel count")
    # only the feature window: the scored trials may be fewer than a
    # batch, and scoring takes no aux step
    fm_cfg = config.feature_config
    try:
        dim = fm_cfg.dim(dataset.samples) if dataset.n_targets else 0
    except ValueError as e:
        raise CliError(f"invalid configuration for {args.data}: {e}") from e
    models = []
    for m, schema in enumerate(dataset.targets):
        shape = theta_shape(schema, dim)
        theta = _read_matrix_checked(run / f"theta_{m}.f64", shape)
        models.append(SupervisedTargetModel(schema, theta))
    n_hold = math.ceil(args.holdout * dataset.n_trials)
    indices = np.arange(dataset.n_trials - n_hold, dataset.n_trials)
    metrics = evaluate_predictions(w, models, dataset, fm_cfg, indices)
    rows = [f"{t.name},{t.kind},{t.metric},{t.value:.17g}" for t in metrics]
    comments = ([f"mtsica {__version__} eval (holdout)",
                 f"run={args.run}", f"data={args.data}",
                 f"holdout={args.holdout:.17g}",
                 f"holdout_trials={n_hold}"])
    _emit_rows(args.out, comments, "target,kind,metric,value", rows)
    return EXIT_OK


def _read_matrix_checked(path, shape=None) -> np.ndarray:
    try:
        return read_matrix_f64(path, shape)
    except (DatasetFormatError, OSError) as e:
        raise CliError(f"cannot read matrix {path}: {e}") from e


def cmd_baseline(args) -> int:
    dataset = _load_dataset(args.data)
    mixing_path = args.mixing or (Path(args.data) / "mixing.f64")
    if not Path(mixing_path).is_file():
        raise CliError(f"no mixing ground truth at {mixing_path}; pass --mixing")
    mixing = _read_matrix_checked(mixing_path)
    comments = [f"mtsica {__version__} baseline (fobi, {args.mode})",
                f"data={args.data}", f"mixing={mixing_path}"]
    if args.mode == "per_trial":
        values = []
        rows = []
        for i in range(dataset.n_trials):
            res = _fobi(dataset.signals[i], f"trial {i}")
            d = amari_distance(res.w, mixing)
            values.append(d)
            rows.append(f"{i},{d:.17g},{'true' if res.degenerate else 'false'}")
        rows.append(f"mean,{np.mean(values):.17g},")
        rows.append(f"median,{np.median(values):.17g},")
        _emit_rows(args.out, comments, "trial,amari,degenerate", rows)
    else:
        res = _fobi(concat_trials(dataset), "the concatenated trials")
        d = amari_distance(res.w, mixing)
        _emit_rows(args.out, comments, "trial,amari,degenerate",
                   [f"concat,{d:.17g},{'true' if res.degenerate else 'false'}"])
    return EXIT_OK


def _fobi(x, what):
    try:
        return fobi(x)
    except ValueError as e:  # whiten: the covariance is rank-deficient
        raise CliError(f"FOBI cannot whiten {what}: {e}") from e


# --- argument parsing ----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtsica",
        description="Multi-trial ICA with optional label supervision.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p.add_argument("--recipe", choices=sorted(RECIPES), required=True)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--channels", type=int, help="override channel count")
    p.add_argument("--samples", type=int, help="override samples per trial")
    p.add_argument("--targets", type=int, help="override target count")
    p.add_argument("--kappa", type=float,
                   help="override mixing log-condition (supervision recipe)")
    p.add_argument("--window", type=int,
                   help="label feature window length (supervised recipes)")
    p.add_argument("--hop", type=int, help="label feature window hop")
    p.add_argument("--log-power", action="store_true",
                   help="log-compress the label feature powers")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="fit the joint unmixing + heads model")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--seeds", help="A..B inclusive seed sweep "
                                   "(one run per seed, one after another)")
    p.add_argument("--center", action="store_true",
                   help="subtract the global per-channel mean before fitting")
    p.add_argument("--rescale", action="store_true",
                   help="normalize the average squared trial spectral norm to 1")
    p.add_argument("--ground-truth",
                   help="mixing matrix file for Amari tracing "
                        "(default: <data>/mixing.f64 when present)")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock times in the trace CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score fitted runs")
    p.add_argument("--w", nargs="+", help="unmixing matrix file(s)")
    p.add_argument("--mixing", help="ground-truth mixing matrix file")
    p.add_argument("--run", help="fit output directory")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--holdout", type=float,
                   help="fraction of trailing trials to score")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="classical baselines on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["per_trial", "concat"],
                   default="per_trial")
    p.add_argument("--mixing", help="ground truth "
                                    "(default: <data>/mixing.f64)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetFormatError, OSError) as e:  # OSError: an unusable --out
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
