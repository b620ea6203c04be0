"""End-to-end command-line behavior: generation, fitting, scoring,
baselines, exit codes, and reproducibility of written artifacts."""

import filecmp
import json
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mtsica import cli
from mtsica.cli import main, parse_config_file
from mtsica.data import (Dataset, load_dataset, read_matrix_f64,
                         save_dataset, write_matrix_f64)
from mtsica.solver import SolverConfig, Trace

GEN_TINY = ["gen", "--recipe", "multi_trial", "--seed", "0",
            "--trials", "3", "--channels", "2", "--samples", "32"]


def run(argv):
    return main([str(a) for a in argv])


def gen_tiny(path, seed=0):
    assert run(GEN_TINY[:4] + [str(seed)] + GEN_TINY[5:] +
               ["--out", path]) == 0


def gen_sup(path, seed=0):
    assert run(["gen", "--recipe", "supervision", "--seed", seed,
                "--out", path, "--trials", "4", "--channels", "3",
                "--samples", "32", "--targets", "1", "--kappa", "1",
                "--window", "8", "--hop", "4", "--log-power"]) == 0


def write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


SUP_CFG = ["iterations=3", "eta_u=0.05", "eta_p=1e-6", "lambda=0.001",
           "window=8", "hop=4", "log_power=true", "seed=0"]


# --- gen ---

def test_gen_writes_loadable_dataset_with_provenance(tmp_path):
    d = tmp_path / "ds"
    gen_tiny(d)
    ds = load_dataset(d)
    assert ds.signals.shape == (3, 2, 32)
    mixing = read_matrix_f64(d / "mixing.f64")
    assert mixing.shape == (2, 2)
    # the text mirror parses back to the same values
    assert np.allclose(np.loadtxt(d / "mixing.txt"), mixing, atol=0.0)
    manifest = json.loads((d / "manifest.json").read_text())
    gen_block = manifest["generator"]
    assert gen_block["recipe"] == "multi_trial"
    assert gen_block["seed"] == 0
    assert gen_block["n_trials"] == 3


def test_gen_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    gen_tiny(a)
    gen_tiny(b)
    for name in ("manifest.json", "signals.bin", "labels.bin",
                 "mixing.f64", "mixing.txt"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_gen_seed_changes_payload(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    gen_tiny(a, seed=0)
    gen_tiny(b, seed=1)
    assert not filecmp.cmp(a / "signals.bin", b / "signals.bin",
                           shallow=False)


def test_gen_feature_flags_reach_labels_and_manifest(tmp_path):
    logd, rawd = tmp_path / "log", tmp_path / "raw"
    gen_sup(logd)
    assert run(["gen", "--recipe", "supervision", "--seed", 0,
                "--out", rawd, "--trials", "4", "--channels", "3",
                "--samples", "32", "--targets", "1", "--kappa", "1",
                "--window", "8", "--hop", "4"]) == 0
    assert not filecmp.cmp(logd / "labels.bin", rawd / "labels.bin",
                           shallow=False)
    manifest = json.loads((logd / "manifest.json").read_text())
    assert manifest["generator"]["window"] == 8
    assert manifest["generator"]["hop"] == 4
    assert manifest["generator"]["log_power"] is True
    assert "log_power" not in json.loads(
        (rawd / "manifest.json").read_text())["generator"]


def test_gen_usage_errors(tmp_path, capsys):
    assert run(GEN_TINY) == 2                       # --out missing
    assert run(["gen", "--recipe", "supervision", "--seed", 0,
                "--out", tmp_path / "x", "--channels", "2",
                "--targets", "3", "--trials", "2", "--samples", "32",
                "--window", "8", "--hop", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_kappa_needs_hilbert_mixing(tmp_path, capsys):
    # multi_trial mixes with a Gaussian matrix that kappa never reached
    assert run(GEN_TINY + ["--kappa", "3", "--out", tmp_path / "x"]) == 2
    assert "kappa" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gen_rejects_a_kappa_that_makes_the_mixing_singular(tmp_path, capsys):
    argv = ["gen", "--recipe", "supervision", "--seed", 0, "--trials", 6,
            "--channels", 4, "--samples", 128, "--kappa"]
    assert run(argv + [40, "--out", tmp_path / "k40"]) == 2
    assert "singular" in capsys.readouterr().err
    assert not (tmp_path / "k40").exists()
    assert run(argv + [34, "--out", tmp_path / "k34"]) == 0


@pytest.mark.parametrize("kappa", ["710", "1e308"])
def test_gen_rejects_a_kappa_whose_spectrum_overflows(tmp_path, kappa):
    # e^kappa is inf: one error line, no numpy warning and no LAPACK
    # message on the process's stderr
    out = tmp_path / "k"
    proc = subprocess.run(
        [sys.executable, "-m", "mtsica", "gen", "--recipe", "supervision",
         "--seed", "0", "--trials", "6", "--channels", "4", "--samples",
         "128", "--kappa", kappa, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: kappa = {float(kappa):g} gives an "
                           f"unusable mixing: ground-truth mixing has "
                           f"non-finite entries\n")
    assert not out.exists()


def test_gen_feature_flags_need_targets(tmp_path, capsys):
    # with no targets the label features reach nothing but the manifest
    for i, argv in enumerate([
            GEN_TINY + ["--window", "8", "--hop", "4", "--log-power"],
            ["gen", "--recipe", "supervision", "--seed", "0", "--trials",
             "2", "--channels", "2", "--samples", "32", "--targets", "0",
             "--window", "8"]]):
        out = tmp_path / f"x{i}"
        assert run(argv + ["--out", out]) == 2, argv
        assert "no targets" in capsys.readouterr().err
        assert not out.exists()


def test_gen_rejects_a_negative_target_count(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["gen", "--recipe", "supervision", "--seed", 0, "--trials", 4,
                "--channels", 3, "--samples", 64, "--targets", -1,
                "--window", 16, "--hop", 8, "--out", out]) == 2
    assert capsys.readouterr().err == \
        "error: n_targets must be non-negative, got -1\n"
    assert not out.exists()


def test_gen_out_on_an_existing_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    assert run(GEN_TINY + ["--out", taken]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert taken.read_text(encoding="utf-8") == "keep"


# --- fit ---

def test_fit_outputs_and_byte_determinism(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_tiny(d)
    cfg = write_cfg(tmp_path / "cfg", ["iterations=4", "eta_u=0.1",
                                       "seed=0"])
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["fit", "--data", d, "--config", cfg, "--out", r1]) == 0
    out = capsys.readouterr().out
    assert "fit done" in out and "amari=" in out    # mixing.f64 auto-found
    assert run(["fit", "--data", d, "--config", cfg, "--out", r2]) == 0
    for name in ("W.f64", "W.txt", "trace.csv", "config.resolved",
                 "run.txt"):
        assert (r1 / name).is_file()
        assert filecmp.cmp(r1 / name, r2 / name, shallow=False), name
    w = read_matrix_f64(r1 / "W.f64")
    assert w.shape == (2, 2) and np.isfinite(w).all()
    trace = (r1 / "trace.csv").read_text().splitlines()
    assert trace[-1].split(",")[0] == "4"
    assert trace[-1].split(",")[5] == ""            # timing off by default


def test_fit_resolved_config_round_trips(tmp_path):
    # a run's config.resolved refits it and eval --run scores it, with
    # each preprocessing switch
    d = tmp_path / "ds"
    gen_tiny(d)
    cfg = write_cfg(tmp_path / "cfg", ["iterations=2", "lambda=0.25",
                                       "eta_u=inf", "batch_trials=2"])
    out = tmp_path / "run"
    assert run(["fit", "--data", d, "--config", cfg, "--out", out]) == 0
    opts = parse_config_file(out / "config.resolved")
    assert opts["lambda"] == 0.25
    assert opts["eta_u"] == np.inf
    assert opts["batch_trials"] == 2
    assert opts["iterations"] == 2
    assert "stochastic" not in opts
    # files written before lipschitz_* and update_order were removed still
    # load: fit reproduces the run and eval --run scores it the same
    retired = ["lipschitz_lm=none", "lipschitz_ltheta=none",
               "update_order=aux_first"]
    old = write_cfg(tmp_path / "old", (out / "config.resolved").read_text()
                    .splitlines() + retired)
    again = tmp_path / "again"
    assert run(["fit", "--data", d, "--config", old, "--out", again]) == 0
    assert filecmp.cmp(out / "W.f64", again / "W.f64", shallow=False)

    sup = tmp_path / "sup"
    gen_sup(sup)
    for flag in ("--center", "--rescale"):
        new_run, old_run, refit = (tmp_path / f"{name}{flag}" for name in
                                   ("new_run", "old_run", "refit"))
        assert run(["fit", "--data", sup, "--config",
                    write_cfg(tmp_path / "sup_cfg", SUP_CFG), flag,
                    "--out", new_run]) == 0
        switch = "preprocess_" + flag[2:]
        assert f"{switch}=true" in \
            (new_run / "config.resolved").read_text().split()
        shutil.copytree(new_run, old_run)
        write_cfg(old_run / "config.resolved",
                  (new_run / "config.resolved").read_text().splitlines()
                  + retired)
        assert run(["fit", "--data", sup, "--config",
                    old_run / "config.resolved", "--out", refit]) == 0
        for name in ("W.f64", "theta_0.f64"):
            assert filecmp.cmp(new_run / name, refit / name, shallow=False)
        scores = []
        for rund in (new_run, old_run):
            csv = rund / "holdout.csv"
            assert run(["eval", "--run", rund, "--data", sup, "--holdout",
                        "0.5", "--out", csv]) == 0
            scores.append([line for line in csv.read_text().splitlines()
                           if not line.startswith("# run=")])
        assert scores[0] == scores[1]
    bad_order = write_cfg(tmp_path / "u", ["update_order=w_first"])
    assert run(["fit", "--data", d, "--config", bad_order,
                "--out", tmp_path / "o"]) == 2


def test_fit_supervised_with_flag_overrides(tmp_path):
    d = tmp_path / "ds"
    gen_sup(d)
    cfg = write_cfg(tmp_path / "cfg", SUP_CFG)
    base, seeded = tmp_path / "b", tmp_path / "s"
    assert run(["fit", "--data", d, "--config", cfg, "--out", base]) == 0
    assert (base / "theta_0.f64").is_file()
    assert run(["fit", "--data", d, "--config", cfg, "--out", seeded,
                "--seed", "5"]) == 0                # flag beats file
    assert "seed=5" in (seeded / "config.resolved").read_text().split()
    assert not filecmp.cmp(base / "W.f64", seeded / "W.f64", shallow=False)


def trace_rows(rund):
    """trace.csv without its resolved-config comment lines."""
    return [line for line in (rund / "trace.csv").read_text().splitlines()
            if not line.startswith("#")]


def test_fit_stochastic_full_size_matches_full_batch(tmp_path):
    d = tmp_path / "ds"
    gen_sup(d)
    cfg1 = write_cfg(tmp_path / "c1", SUP_CFG)
    cfg2 = write_cfg(tmp_path / "c2",
                     SUP_CFG + ["batch_trials=4", "batch_times=32"])
    full, sto = tmp_path / "f", tmp_path / "st"
    assert run(["fit", "--data", d, "--config", cfg1, "--out", full]) == 0
    assert run(["fit", "--data", d, "--config", cfg2, "--out", sto]) == 0
    assert filecmp.cmp(full / "W.f64", sto / "W.f64", shallow=False)
    assert filecmp.cmp(full / "theta_0.f64", sto / "theta_0.f64",
                       shallow=False)
    assert trace_rows(full) == trace_rows(sto)


def test_fit_batch_sizes_pick_the_path(tmp_path):
    # a batch smaller than the dataset fits on minibatches with no flag;
    # an older config.resolved reproduces its run: stochastic=true is
    # dropped, stochastic=false clears the batch sizes its fit ignored
    d = tmp_path / "ds"
    gen_sup(d)                                      # N 4, T 32
    batch = ["batch_trials=3", "batch_times=16"]
    runs = {}
    for name, extra in [("full", []), ("mini", batch),
                        ("old_true", batch + ["stochastic=true"]),
                        ("old_false", batch + ["stochastic=false"])]:
        runs[name] = tmp_path / name
        cfg = write_cfg(tmp_path / f"{name}.cfg", SUP_CFG + extra)
        assert run(["fit", "--data", d, "--config", cfg,
                    "--out", runs[name]]) == 0

    def same(a, b):
        return all(filecmp.cmp(runs[a] / f, runs[b] / f, shallow=False)
                   for f in ("W.f64", "theta_0.f64"))

    assert not same("mini", "full")
    assert same("old_true", "mini") and same("old_false", "full")
    assert trace_rows(runs["old_false"]) == trace_rows(runs["full"])
    resolved = (runs["old_false"] / "config.resolved").read_text().split()
    assert "batch_trials=none" in resolved and "batch_times=none" in resolved
    assert not [k for k in resolved if k.startswith("stochastic")]
    # eval --run checks only the feature window, not the batch
    short = tmp_path / "short"
    assert run(["gen", "--recipe", "supervision", "--seed", 1, "--out", short,
                "--trials", "2", "--channels", "3", "--samples", "32",
                "--targets", "1", "--kappa", "1", "--window", "8",
                "--hop", "4", "--log-power"]) == 0
    assert run(["eval", "--run", runs["mini"], "--data", short,
                "--holdout", "1", "--out", tmp_path / "short.csv"]) == 0


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = write_cfg(tmp_path / "cfg", ["# comment", "", "iterations=2  # k",
                                       "   ", "#seed=5"])
    assert parse_config_file(cfg) == {"iterations": 2}


def test_fit_rejects_malformed_configs(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_tiny(d)
    bad_key = write_cfg(tmp_path / "k", ["iterations=2", "lr=0.1"])
    assert run(["fit", "--data", d, "--config", bad_key,
                "--out", tmp_path / "o1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    dup = write_cfg(tmp_path / "d", ["seed=1", "seed=2"])
    assert run(["fit", "--data", d, "--config", dup,
                "--out", tmp_path / "o2"]) == 2
    assert "duplicate" in capsys.readouterr().err
    bad_val = write_cfg(tmp_path / "v", ["iterations=soon"])
    assert run(["fit", "--data", d, "--config", bad_val,
                "--out", tmp_path / "o3"]) == 2
    for name, line, why in [("no_eq", "iterations 2", "expected key=value"),
                            ("maybe", "log_power=maybe", "expected a boolean")]:
        assert run(["fit", "--data", d, "--config",
                    write_cfg(tmp_path / name, [line]),
                    "--out", tmp_path / name / "o"]) == 2, line
        assert why in capsys.readouterr().err
    sup = tmp_path / "sup"
    gen_sup(sup)
    for i, (data, lines, flags) in enumerate([
            (d, ["eta_u=-1"], []),
            (d, ["window=1"], []),
            (d, ["hop=0"], []),
            (d, ["density=huber", "aux_mode=proximal"], []),
            (d, ["init_scale=nan"], []),
            (d, ["init_scale=inf"], []),
            (d, ["lambda=nan"], []),
            (d, ["lambda=inf"], []),
            (d, ["mu=nan"], []),
            (d, ["log_eps=inf"], []),
            (d, ["eta_p=inf"], []),
            (d, ["eps=inf"], []),
            (d, ["batch_trials=4"], []),                   # N is 3
            (d, ["batch_times=33", "stochastic=true"], []),  # T is 32
            (sup, ["iterations=1"], [])]):                 # window 64 > T
        bad_cfg = write_cfg(tmp_path / f"c{i}", lines)
        assert run(["fit", "--data", data, "--config", bad_cfg,
                    "--out", tmp_path / f"bad{i}", *flags]) == 2, lines
        assert "invalid configuration" in capsys.readouterr().err
    bad_order = write_cfg(tmp_path / "u", ["update_order=w_first"])
    assert run(["fit", "--data", d, "--config", bad_order,
                "--out", tmp_path / "o5"]) == 2
    assert run(["fit", "--data", d, "--out", tmp_path / "o6",
                "--lemma1-order"]) == 2
    assert run(["fit", "--data", d, "--out", tmp_path / "o7",
                "--stochastic"]) == 2                # the flag is gone


def test_fit_eta_a_picks_the_aux_step(tmp_path, capsys):
    # eta_a = inf is the exact step and a finite eta_a the proximal one;
    # an older config.resolved carrying aux_mode reproduces its run:
    # exact fits ignored eta_a, proximal fits read it (1.0 when unset)
    d = tmp_path / "ds"
    gen_sup(d)
    runs = {}
    for name, extra in [("exact", ["eta_a=inf"]), ("prox", ["eta_a=0.5"]),
                        ("prox1", ["eta_a=1"]),
                        ("old_exact", ["aux_mode=exact", "eta_a=1"]),
                        ("old_prox", ["aux_mode=proximal", "eta_a=0.5"]),
                        ("old_prox1", ["aux_mode=proximal"])]:
        runs[name] = tmp_path / name
        cfg = write_cfg(tmp_path / f"{name}.cfg", SUP_CFG + extra)
        assert run(["fit", "--data", d, "--config", cfg,
                    "--out", runs[name]]) == 0

    def same(a, b):
        return all(filecmp.cmp(runs[a] / f, runs[b] / f, shallow=False)
                   for f in ("W.f64", "theta_0.f64")) and \
            trace_rows(runs[a]) == trace_rows(runs[b])

    assert not same("exact", "prox") and not same("prox", "prox1")
    assert same("old_exact", "exact") and same("old_prox", "prox") and \
        same("old_prox1", "prox1")
    resolved = (runs["old_exact"] / "config.resolved").read_text().split()
    assert "eta_a=inf" in resolved
    assert not [k for k in resolved if k.startswith("aux_mode")]
    # eval --run scores a run directory whose config.resolved has aux_mode
    old_run = tmp_path / "old_run"
    shutil.copytree(runs["exact"], old_run)
    write_cfg(old_run / "config.resolved",
              [line for line in (runs["exact"] / "config.resolved")
               .read_text().splitlines() if not line.startswith("eta_a=")]
              + ["aux_mode=exact", "eta_a=1"])
    scores = []
    for rund in (runs["exact"], old_run):
        csv = rund / "holdout.csv"
        assert run(["eval", "--run", rund, "--data", d, "--holdout",
                    "0.5", "--out", csv]) == 0
        scores.append([line for line in csv.read_text().splitlines()
                       if not line.startswith("# run=")])
    assert scores[0] == scores[1]
    capsys.readouterr()
    tiny = tmp_path / "tiny"
    gen_tiny(tiny)
    for i, lines in enumerate([["aux_mode=implicit"],
                               ["density=huber", "eta_a=1"]]):
        assert run(["fit", "--data", tiny, "--config",
                    write_cfg(tmp_path / f"bad{i}.cfg", lines),
                    "--out", tmp_path / f"bad{i}"]) == 2, lines
        assert capsys.readouterr().err.startswith("error:")
    assert run(["fit", "--data", tiny, "--config",
                write_cfg(tmp_path / "huber.cfg",
                          ["iterations=2", "density=huber"]),
                "--out", tmp_path / "huber"]) == 2
    assert "density is fixed at 'laplace', got 'huber'" in \
        capsys.readouterr().err


def test_fit_fixed_keys_accept_only_their_old_defaults(tmp_path, capsys):
    # beta1, beta2, eps, log_eps and density are constants now; an older
    # config.resolved pins their defaults as written by %.17g and still
    # reproduces its run, and eval --run still scores its run directory
    d = tmp_path / "ds"
    gen_sup(d)
    base = SUP_CFG + ["optimizer=adamw", "mu=0.1", "batch_trials=2",
                      "batch_times=16"]
    old_keys = ["beta1=0.90000000000000002", "beta2=0.999", "eps=1e-08",
                "log_eps=9.9999999999999995e-07", "density=laplace"]
    runs = {}
    for name, extra in [("new", []), ("old", old_keys)]:
        runs[name] = tmp_path / name
        assert run(["fit", "--data", d, "--config",
                    write_cfg(tmp_path / f"{name}.cfg", base + extra),
                    "--out", runs[name]]) == 0
    for f in ("W.f64", "theta_0.f64"):
        assert filecmp.cmp(runs["new"] / f, runs["old"] / f, shallow=False)
    assert trace_rows(runs["new"]) == trace_rows(runs["old"])
    resolved = (runs["old"] / "config.resolved").read_text()
    assert not [k for k in cli._FIXED_KEYS if f"\n{k}=" in resolved]
    with open(runs["old"] / "config.resolved", "a", encoding="utf-8") as fh:
        fh.write("\n".join(old_keys) + "\n")
    scores = []
    for rund in (runs["new"], runs["old"]):
        csv = rund / "holdout.csv"
        assert run(["eval", "--run", rund, "--data", d, "--holdout",
                    "0.5", "--out", csv]) == 0
        scores.append([line for line in csv.read_text().splitlines()
                       if not line.startswith("# run=")])
    assert scores[0] == scores[1]
    capsys.readouterr()
    for i, line in enumerate(["beta1=0.8", "beta2=0.99", "eps=1e-4",
                              "log_eps=1e-3", "eps=nan", "beta1=none",
                              "density=huber"]):
        assert run(["fit", "--data", d, "--config",
                    write_cfg(tmp_path / f"bad{i}.cfg", base + [line]),
                    "--out", tmp_path / f"bad{i}"]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split("=")[0] in err, err
    assert not (tmp_path / "bad0").exists()


def test_fit_u_max_inf_rejects_a_sample_zero_in_every_channel(
        tmp_path, capsys):
    # the exact weight there is infinite; eval takes no aux step
    d, dz = tmp_path / "ds", tmp_path / "zero"
    gen_sup(d)
    ds = load_dataset(d)
    signals = np.array(ds.signals)
    signals[1, :, 10] = 0.0
    save_dataset(Dataset(signals, ds.labels, ds.targets), dz)
    cfg = write_cfg(tmp_path / "cfg", SUP_CFG + ["u_max=inf"])
    assert run(["fit", "--data", dz, "--config", cfg,
                "--out", tmp_path / "bad"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trial 1" in err and \
        "time 10" in err
    assert run(["fit", "--data", dz, "--config",
                write_cfg(tmp_path / "default.cfg", SUP_CFG),
                "--out", tmp_path / "default"]) == 0
    rund = tmp_path / "run"
    assert run(["fit", "--data", d, "--config", cfg, "--out", rund]) == 0
    assert run(["eval", "--run", rund, "--data", dz, "--holdout", "1",
                "--out", tmp_path / "eval.csv"]) == 0


def test_fit_out_on_an_existing_file_exits_2(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_tiny(d)
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    assert run(["fit", "--data", d, "--config",
                write_cfg(tmp_path / "cfg", ["iterations=1"]),
                "--out", taken]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert taken.read_text(encoding="utf-8") == "keep"


def test_bad_target_entry_exits_2(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_sup(d)
    mf = json.loads((d / "manifest.json").read_text())
    mf["targets"][0]["kind"] = "ordinal"
    (d / "manifest.json").write_text(json.dumps(mf))
    for cmd in (["baseline", "--data", d],
                ["fit", "--data", d, "--out", tmp_path / "run"]):
        assert run(cmd) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ordinal" in err


@pytest.mark.parametrize("key,bad", [("n_trials", 2.5), ("n_trials", "2"),
                                     ("samples", 32.0)])
def test_non_integer_manifest_dimension_exits_2(tmp_path, capsys, key, bad):
    d = tmp_path / "ds"
    gen_tiny(d)
    mf = json.loads((d / "manifest.json").read_text())
    mf[key] = bad
    (d / "manifest.json").write_text(json.dumps(mf))
    for cmd in (["baseline", "--data", d],
                ["fit", "--data", d, "--out", tmp_path / "run"]):
        assert run(cmd) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-integer" in err


def test_fit_numerical_abort_flushes_partial_outputs(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ds = Dataset(1e30 * rng.normal(size=(3, 2, 32)), np.zeros((3, 0)), ())
    save_dataset(ds, tmp_path / "ds")
    cfg = write_cfg(tmp_path / "cfg", ["iterations=20", "eta_u=inf"])
    out = tmp_path / "run"
    assert run(["fit", "--data", tmp_path / "ds", "--config", cfg,
                "--out", out]) == 3
    assert "abort" in capsys.readouterr().err
    assert (out / "trace.csv").is_file()
    assert "status=aborted" in (out / "run.txt").read_text()
    assert np.isfinite(read_matrix_f64(out / "W.f64")).all()


def gen_three_channels(path):
    assert run(["gen", "--recipe", "multi_trial", "--seed", 0, "--out", path,
                "--trials", "4", "--channels", "3", "--samples", "64"]) == 0


def test_fit_rejects_a_nonfinite_or_singular_ground_truth(tmp_path, capsys):
    # the Amari distance needs a finite, nonsingular mixing
    d = tmp_path / "ds"
    gen_three_channels(d)
    for name, mixing, why in [
            ("zero", np.zeros((3, 3)), "singular (rank 0 of 3)"),
            ("nan", np.full((3, 3), np.nan), "non-finite"),
            ("rank1", np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
             "singular (rank 1 of 3)")]:
        write_matrix_f64(tmp_path / f"{name}.f64", mixing)
        out = tmp_path / f"run_{name}"
        assert run(["fit", "--data", d, "--ground-truth",
                    tmp_path / f"{name}.f64", "--out", out]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and why in err
        assert not out.exists()


def test_rescale_of_all_zero_signals_exits_2(tmp_path, capsys):
    zeros = tmp_path / "zeros"
    save_dataset(Dataset(np.zeros((3, 2, 50)), np.zeros((3, 0)), ()), zeros)
    cfg = write_cfg(tmp_path / "cfg", ["iterations=2"])
    assert run(["fit", "--data", zeros, "--config", cfg, "--rescale",
                "--out", tmp_path / "zero_run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "all-zero" in err
    assert not (tmp_path / "zero_run").exists()
    # eval --run reads the switch back from a rescaled run's config
    d, rund = tmp_path / "ds", tmp_path / "run"
    gen_tiny(d)
    assert run(["fit", "--data", d, "--config", cfg, "--rescale",
                "--out", rund]) == 0
    capsys.readouterr()
    assert run(["eval", "--run", rund, "--data", zeros,
                "--holdout", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "all-zero" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_overflow_at_the_first_snapshot_exits_3(tmp_path, capsys):
    # W0 overflows W @ A before iteration 1: an abort, not a traceback
    d = tmp_path / "ds"
    gen_three_channels(d)
    out = tmp_path / "run"
    assert run(["fit", "--data", d, "--config",
                write_cfg(tmp_path / "cfg", ["init_scale=1e308"]),
                "--out", out]) == 3
    assert "abort" in capsys.readouterr().err
    text = (out / "run.txt").read_text()
    assert "status=aborted" in text
    assert "non-finite entries in W @ A at iteration 0" in text
    assert (out / "trace.csv").read_text().splitlines()[-1] == Trace.HEADER


def test_fit_init_scale_without_an_invertible_draw_exits_2(tmp_path, capsys):
    # at 10 channels W0 = I + 1e308 * N(0, 1) overflows on every draw
    d = tmp_path / "ds"
    assert run(["gen", "--recipe", "multi_trial", "--seed", 0, "--out", d,
                "--trials", 4, "--channels", 10, "--samples", 200]) == 0
    cfg = write_cfg(tmp_path / "cfg", ["init_scale=1e308", "iterations=2"])
    out = tmp_path / "run"
    for flags in ([], ["--seeds", "0..2"]):
        assert run(["fit", "--data", d, "--config", cfg, "--out", out,
                    *flags]) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration")
        assert "init_scale = 1e+308" in err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fit_seed_sweep_where_every_seed_aborts_exits_3(tmp_path, capsys):
    d = tmp_path / "ds"
    assert run(["gen", "--recipe", "multi_trial", "--seed", 0, "--out", d,
                "--trials", 4, "--channels", 3, "--samples", 200]) == 0
    cfg = write_cfg(tmp_path / "cfg", ["init_scale=1e200", "iterations=2"])
    out = tmp_path / "sweep"
    assert run(["fit", "--data", d, "--config", cfg, "--out", out,
                "--seeds", "0..2"]) == 3
    assert "aborted seeds: [0, 1, 2]" in capsys.readouterr().err
    for s in range(3):
        assert "status=aborted" in (out / f"seed_{s}" / "run.txt").read_text()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fit_diverging_head_exits_3_and_names_the_head(tmp_path, capsys):
    d = tmp_path / "ds"
    assert run(["gen", "--recipe", "supervision", "--seed", 1, "--out", d,
                "--trials", "40", "--channels", "3", "--samples", "128",
                "--targets", "1", "--window", "16", "--hop", "8"]) == 0
    cfg = write_cfg(tmp_path / "cfg", [
        "iterations=40", "eta_p=0.1", "lambda=0", "window=16", "hop=8",
        "stochastic=true", "batch_trials=16", "batch_times=64"])
    out = tmp_path / "run"
    assert run(["fit", "--data", d, "--config", cfg, "--out", out]) == 3
    assert "abort" in capsys.readouterr().err
    text = (out / "run.txt").read_text()
    assert "status=aborted" in text and "head 0 diverged at iteration" in text
    assert np.isfinite(read_matrix_f64(out / "theta_0.f64", (135,))).all()


def test_fit_divergence_prints_only_the_abort_line(tmp_path):
    # the default config diverges on this dataset; the overflow of the
    # heads' losses reaches stderr as the abort line, not as numpy warnings
    d = tmp_path / "ds"
    assert run(["gen", "--recipe", "supervision", "--seed", 7, "--out", d,
                "--trials", 4, "--channels", 2, "--samples", 64,
                "--targets", 2, "--kappa", 5, "--log-power"]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "mtsica", "fit", "--data", str(d),
         "--out", str(tmp_path / "run"), "--seed", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "fit aborted numerically; partial outputs written\n"


def test_fit_whose_last_trace_row_overflows_exits_3(tmp_path):
    # the dataset above at 50 iterations: the heads' losses overflow first
    # in row 50, after which no minibatch check runs.  The row is dropped,
    # so the trace and the outputs end at iteration 49.
    d = tmp_path / "ds"
    assert run(["gen", "--recipe", "supervision", "--seed", 7, "--out", d,
                "--trials", 4, "--channels", 2, "--samples", 64,
                "--targets", 2, "--kappa", 5, "--log-power"]) == 0
    cfg = write_cfg(tmp_path / "cfg", ["iterations=50"])
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "mtsica", "fit", "--data", str(d),
         "--config", str(cfg), "--out", str(out), "--seed", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "fit aborted numerically; partial outputs written\n"
    assert "diverged at iteration 50" in (out / "run.txt").read_text()
    rows = trace_rows(out)
    assert rows[0] == Trace.HEADER and len(rows) == 51
    assert rows[-1].startswith("49,") and "inf" not in rows[-1]


def test_fit_seed_sweep_matches_single_runs(tmp_path):
    d = tmp_path / "ds"
    gen_tiny(d)
    cfg = write_cfg(tmp_path / "cfg", ["iterations=3", "eta_u=0.1"])
    sweep = tmp_path / "sweep"
    assert run(["fit", "--data", d, "--config", cfg, "--out", sweep,
                "--seeds", "0..2"]) == 0
    single = tmp_path / "single"
    assert run(["fit", "--data", d, "--config", cfg, "--out", single,
                "--seed", "1"]) == 0
    assert filecmp.cmp(sweep / "seed_1" / "W.f64", single / "W.f64",
                       shallow=False)
    assert sorted(p.name for p in sweep.iterdir()) == \
        ["seed_0", "seed_1", "seed_2"]
    for seeds in ("5..3", "3", "a..b", "5..2"):    # empty or malformed
        assert run(["fit", "--data", d, "--config", cfg, "--out", sweep,
                    "--seeds", seeds]) == 2, seeds


def test_fit_seed_and_seeds_together_exit_2_before_any_run(tmp_path, capsys):
    # --seed would be dropped silently in a sweep
    d = tmp_path / "ds"
    gen_tiny(d)
    cfg = write_cfg(tmp_path / "cfg", ["iterations=1"])
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert run(["fit", "--data", d, "--config", cfg, "--out", out,
                "--seeds", "0..1", "--seed", "5"]) == 2
    assert "argument --seed: not allowed with argument --seeds" in \
        capsys.readouterr().err
    assert not out.exists()


# --- eval ---

def test_eval_amari_of_inverse_mixing_is_zero(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_tiny(d)
    mixing = read_matrix_f64(d / "mixing.f64")
    w_path = tmp_path / "w.f64"
    write_matrix_f64(w_path, np.linalg.inv(mixing))
    assert run(["eval", "--w", w_path, "--mixing", d / "mixing.f64"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if str(w_path) in l][0]
    assert float(line.split(",")[1]) < 1e-10


def test_eval_multiple_w_appends_mean_median(tmp_path):
    d = tmp_path / "ds"
    gen_tiny(d)
    mixing = read_matrix_f64(d / "mixing.f64")
    paths = []
    for i, w in enumerate([np.linalg.inv(mixing), np.eye(2),
                           np.array([[0.0, 1.0], [1.0, 0.0]])]):
        p = tmp_path / f"w{i}.f64"
        write_matrix_f64(p, w)
        paths.append(p)
    out_csv = tmp_path / "scores.csv"
    assert run(["eval", "--w", *paths, "--mixing", d / "mixing.f64",
                "--out", out_csv]) == 0
    rows = [l for l in out_csv.read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "w_file,amari"
    assert len(rows) == 1 + 3 + 2
    labels = [r.split(",")[0] for r in rows[-2:]]
    assert labels == ["mean", "median"]
    vals = sorted(float(r.split(",")[1]) for r in rows[1:4])
    med = float(rows[-1].split(",")[1])
    assert med == pytest.approx(vals[1])


def test_eval_w_names_the_mixing_file_for_a_bad_mixing(tmp_path, capsys):
    # the ground truth is checked before any W is read or scored
    d = tmp_path / "ds"
    gen_tiny(d)
    capsys.readouterr()
    w_path = tmp_path / "w.f64"
    write_matrix_f64(w_path, np.eye(2))
    for name, mixing, why in [("zero2", np.zeros((2, 2)),
                               "ground-truth mixing is singular (rank 0 of 2)"),
                              ("nan2", np.full((2, 2), np.nan),
                               "ground-truth mixing has non-finite entries")]:
        path = tmp_path / f"{name}.f64"
        write_matrix_f64(path, mixing)
        assert run(["eval", "--w", w_path, tmp_path / "missing.f64",
                    "--mixing", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad mixing file {path}: {why}\n"


def test_an_empty_matrix_file_is_named_as_unreadable(tmp_path, capsys):
    # zero values form no square matrix, so no 0 x 0 ground truth or W
    # reaches the Amari distance
    d = tmp_path / "ds"
    gen_tiny(d)
    w_path, empty = tmp_path / "w.f64", tmp_path / "empty.f64"
    write_matrix_f64(w_path, np.eye(2))
    empty.write_bytes(b"")
    capsys.readouterr()
    for argv in (["eval", "--w", w_path, "--mixing", empty],
                 ["eval", "--w", empty, "--mixing", d / "mixing.f64"],
                 ["fit", "--data", d, "--ground-truth", empty,
                  "--out", tmp_path / "run"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read matrix {empty}: {empty}: "
                                f"0 values do not form a square matrix\n")
    assert not (tmp_path / "run").exists()


def test_eval_holdout_scores_fitted_heads(tmp_path):
    d = tmp_path / "ds"
    gen_sup(d)
    cfg = write_cfg(tmp_path / "cfg", SUP_CFG)
    rund = tmp_path / "run"
    assert run(["fit", "--data", d, "--config", cfg, "--out", rund]) == 0
    out_csv = tmp_path / "holdout.csv"
    assert run(["eval", "--run", rund, "--data", d, "--holdout", "0.5",
                "--out", out_csv]) == 0
    rows = [l for l in out_csv.read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "target,kind,metric,value"
    name, kind, metric, value = rows[1].split(",")
    assert (name, kind, metric) == ("y0", "continuous", "rmse")
    assert float(value) >= 0.0
    assert "holdout_trials=2" in out_csv.read_text()


def test_eval_usage_errors(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_tiny(d)
    assert run(["eval", "--w", d / "mixing.f64"]) == 2   # no --mixing
    assert run(["eval", "--run", tmp_path / "nope", "--data", d,
                "--holdout", "0.5"]) == 2                # no run dir
    rund = tmp_path / "r"
    cfg = write_cfg(tmp_path / "cfg", ["iterations=1"])
    assert run(["fit", "--data", d, "--config", cfg, "--out", rund]) == 0
    assert run(["eval", "--run", rund, "--data", d,
                "--holdout", "1.5"]) == 2                # bad fraction
    sup, short = tmp_path / "sup", tmp_path / "short"
    gen_sup(sup)
    assert run(["gen", "--recipe", "supervision", "--seed", 0, "--out", short,
                "--trials", "4", "--channels", "3", "--samples", "6",
                "--targets", "1", "--kappa", "1", "--window", "2",
                "--hop", "1"]) == 0
    sup_run = tmp_path / "sup_run"
    assert run(["fit", "--data", sup, "--config",
                write_cfg(tmp_path / "sup_cfg", SUP_CFG),
                "--out", sup_run]) == 0
    assert run(["eval", "--run", sup_run, "--data", short,
                "--holdout", "0.5"]) == 2                # window 8 > T 6
    assert run(["eval", "--run", rund, "--data", sup,
                "--holdout", "0.5"]) == 2                # 2x2 W, 3 channels
    assert run(["eval"]) == 2                            # neither mode
    err = capsys.readouterr().err.splitlines()
    assert len([l for l in err if l.startswith("error:")]) == 6
    assert "W.f64 does not match" in err[-2]


def test_eval_rejects_the_other_modes_flags(tmp_path, capsys):
    # each mode names the flag it does not take, before it reads anything
    d = tmp_path / "ds"
    gen_tiny(d)
    rund = tmp_path / "r"
    cfg = write_cfg(tmp_path / "cfg", ["iterations=1"])
    assert run(["fit", "--data", d, "--config", cfg, "--out", rund]) == 0
    w_mode = ["eval", "--w", rund / "W.f64", "--mixing", d / "mixing.f64"]
    run_mode = ["eval", "--run", rund, "--data", d, "--holdout", "0.5"]
    capsys.readouterr()
    for argv, flag in [(w_mode + ["--run", rund], "--run"),
                       (w_mode + ["--data", d], "--data"),
                       (w_mode + ["--holdout", "0.5"], "--holdout")]:
        assert run(argv) == 2, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --w does not take {flag}\n"
    assert run(run_mode + ["--mixing", d / "mixing.f64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --run does not take --mixing\n"
    assert run(w_mode) == 0 and run(run_mode) == 0   # each mode alone


def test_eval_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    d = tmp_path / "ds"
    gen_tiny(d)
    assert run(["eval", "--w", d / "mixing.f64", "--mixing",
                d / "mixing.f64", "--out", tmp_path / "missing" / "x.csv"]) \
        == 2
    assert capsys.readouterr().err.startswith("error:")


# --- baseline ---

def save_distinct_kurtosis_dataset(path, n=4, s=6000, seed=0):
    rng = np.random.default_rng(seed)
    mixing = np.array([[1.2, 0.7], [-0.4, 1.0]])
    src = np.stack([
        np.vstack([rng.laplace(size=s), rng.uniform(-1, 1, size=s)])
        for _ in range(n)])
    ds = Dataset(np.einsum("cd,ndt->nct", mixing, src),
                 np.zeros((n, 0)), ())
    save_dataset(ds, path)
    write_matrix_f64(path / "mixing.f64", mixing)
    return mixing


def test_baseline_per_trial_rows_and_summary(tmp_path):
    d = tmp_path / "ds"
    save_distinct_kurtosis_dataset(d, n=4)
    out_csv = tmp_path / "base.csv"
    assert run(["baseline", "--data", d, "--out", out_csv]) == 0
    rows = [l for l in out_csv.read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "trial,amari,degenerate"
    assert len(rows) == 1 + 4 + 2
    assert rows[-2].startswith("mean,") and rows[-1].startswith("median,")
    per_trial = [float(r.split(",")[1]) for r in rows[1:5]]
    assert np.mean(per_trial) < 0.5                 # separable mixture
    assert all(r.split(",")[2] == "false" for r in rows[1:5])


def test_baseline_concat_pools_trials(tmp_path):
    d = tmp_path / "ds"
    save_distinct_kurtosis_dataset(d, n=4, s=3000)
    out_csv = tmp_path / "c.csv"
    assert run(["baseline", "--data", d, "--mode", "concat",
                "--out", out_csv]) == 0
    rows = [l for l in out_csv.read_text().splitlines()
            if not l.startswith("#")]
    assert rows[1].startswith("concat,")
    assert float(rows[1].split(",")[1]) < 0.5


def test_baseline_flags_equal_kurtosis_sources(tmp_path):
    rng = np.random.default_rng(1)
    src = np.stack([rng.laplace(size=(2, 5000)) for _ in range(3)])
    ds = Dataset(src, np.zeros((3, 0)), ())
    save_dataset(ds, tmp_path / "ds")
    write_matrix_f64(tmp_path / "ds" / "mixing.f64", np.eye(2))
    out_csv = tmp_path / "deg.csv"
    assert run(["baseline", "--data", tmp_path / "ds", "--mode", "concat",
                "--out", out_csv]) == 0
    row = [l for l in out_csv.read_text().splitlines()
           if l.startswith("concat")][0]
    assert row.split(",")[2] == "true"


def test_baseline_requires_ground_truth(tmp_path, capsys):
    ds = Dataset(np.random.default_rng(2).normal(size=(2, 2, 40)),
                 np.zeros((2, 0)), ())
    save_dataset(ds, tmp_path / "ds")
    assert run(["baseline", "--data", tmp_path / "ds"]) == 2
    assert "mixing" in capsys.readouterr().err


def test_baseline_names_the_trial_fobi_cannot_whiten(tmp_path, capsys):
    z = np.random.default_rng(3).normal(size=(3, 2, 200))
    one = z.copy()
    one[1, 1] = 0.5                      # a flat channel in trial 1 only
    every = z.copy()
    every[:, 1] = 0.5                    # and in every trial
    for mode, signals, where in [("per_trial", one, "trial 1"),
                                 ("concat", every, "concatenated trials")]:
        root = tmp_path / mode
        save_dataset(Dataset(signals, np.zeros((3, 0)), ()), root)
        write_matrix_f64(root / "mixing.f64", np.eye(2))
        assert run(["baseline", "--data", root, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FOBI cannot whiten") and where in err


def test_baseline_rejects_a_mixing_that_does_not_fit(tmp_path, capsys):
    # the Amari distance needs a square, finite, nonsingular mixing of the
    # dataset's channel count; it is checked before any FOBI
    d = tmp_path / "ds"
    assert run(["gen", "--recipe", "multi_trial", "--seed", 0, "--out", d,
                "--trials", 3, "--channels", 2, "--samples", 200]) == 0
    for name, mixing, why in [("eye3", np.eye(3), "shape mismatch"),
                              ("zero", np.zeros((2, 2)),
                               "singular (rank 0 of 2)")]:
        path = tmp_path / f"{name}.f64"
        write_matrix_f64(path, mixing)
        for mode in ("per_trial", "concat"):
            assert run(["baseline", "--data", d, "--mode", mode,
                        "--mixing", path]) == 2, (name, mode)
            err = capsys.readouterr().err
            assert err.startswith("error: bad mixing file") and why in err


def test_baseline_method_flag_is_gone(tmp_path, capsys):
    # FOBI is the only baseline; the comment line still names it
    d = tmp_path / "ds"
    save_distinct_kurtosis_dataset(d, n=2)
    assert run(["baseline", "--data", d, "--method", "fobi"]) == 2
    capsys.readouterr()
    for mode in ("per_trial", "concat"):
        assert run(["baseline", "--data", d, "--mode", mode]) == 0
        assert f"baseline (fobi, {mode})" in capsys.readouterr().out


# --- documentation ---

def test_readme_config_table_lists_the_live_keys_and_defaults():
    # every key a config file takes, no retired one, each with its default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Config file reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key_cell, default_cell = line.split("|")[1:3]
        keys = re.findall(r"`(\w+)`", key_cell)
        raws = [raw.strip().strip("`") for raw in default_cell.split(",")]
        if len(raws) == 1:
            raws *= len(keys)
        assert len(raws) == len(keys), line
        for key, raw in zip(keys, raws):
            assert key not in table, key
            table[key] = cli._parse_value(key, raw)
    want = {("lambda" if f.name == "lam" else f.name): f.default
            for f in fields(SolverConfig)}
    want.update(dict.fromkeys(cli._RUN_KEYS, False))
    assert table == want


def test_readme_names_every_retired_key():
    # the retired-key paragraph lists the keys by hand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    para = readme.split("Files from earlier versions may also carry", 1)[1]
    para = para.split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)`", para))
    assert set(cli._RETIRED_KEYS) <= named, \
        set(cli._RETIRED_KEYS) - named


# --- entry points ---

def test_version_and_help_exit_cleanly(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
    assert run(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_console_script_smoke():
    proc = subprocess.run([sys.executable, "-m", "mtsica", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fit" in proc.stdout
