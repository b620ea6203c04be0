"""End-to-end command-line behavior: generation, fitting, scoring,
baselines, exit codes, and reproducibility of written artifacts."""

import filecmp
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mtsica.cli import main, parse_config_file
from mtsica.data import (Dataset, load_dataset, read_matrix_f64,
                         save_dataset, write_matrix_f64)

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
    assert opts["stochastic"] is False
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
    new_run, old_run = tmp_path / "new_run", tmp_path / "old_run"
    assert run(["fit", "--data", sup, "--config",
                write_cfg(tmp_path / "sup_cfg", SUP_CFG), "--center",
                "--out", new_run]) == 0
    shutil.copytree(new_run, old_run)
    write_cfg(old_run / "config.resolved",
              (new_run / "config.resolved").read_text().splitlines()
              + retired)
    refit = tmp_path / "refit"
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


def test_fit_stochastic_full_size_matches_full_batch(tmp_path):
    d = tmp_path / "ds"
    gen_sup(d)
    cfg1 = write_cfg(tmp_path / "c1", SUP_CFG)
    cfg2 = write_cfg(tmp_path / "c2",
                     SUP_CFG + ["batch_trials=4", "batch_times=32"])
    full, sto = tmp_path / "f", tmp_path / "st"
    assert run(["fit", "--data", d, "--config", cfg1, "--out", full]) == 0
    assert run(["fit", "--data", d, "--config", cfg2, "--out", sto,
                "--stochastic"]) == 0
    assert filecmp.cmp(full / "W.f64", sto / "W.f64", shallow=False)
    assert filecmp.cmp(full / "theta_0.f64", sto / "theta_0.f64",
                       shallow=False)


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
            (d, ["batch_trials=4"], ["--stochastic"]),     # N is 3
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
    assert run(["fit", "--data", d, "--config", cfg, "--out", sweep,
                "--seeds", "5..3"]) == 2            # empty range


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
    err = capsys.readouterr().err.splitlines()
    assert len([l for l in err if l.startswith("error:")]) == 4


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
