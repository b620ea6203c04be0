"""Quantitative acceptance checks for the whole pipeline.

Each test pins one scenario end to end — instance seeds, rates, iteration
budgets, and tolerances are all frozen — and finishes by printing a single
``PASS criterion n`` line with the measured quantity (visible under
``pytest -s``).  Wall-clock budgets are asserted, not aspirational.
"""

import filecmp
import os
import time
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize

from mtsica.cli import main as cli_main
from mtsica.data import TargetSchema
from mtsica.metrics import amari_distance, fobi, success_rate
from mtsica.prng import Xoshiro256pp
from mtsica.solver import (SolverAbort, SolverConfig, compute_rate_guards,
                           fit_full_batch, fit_stochastic)
from mtsica.supervision import (FeatureMapConfig, SupervisedTargetModel,
                                batch_loss_grads, init_model, theta_shape)
from mtsica.synthgen import gen_dataset
from mtsica.unmixing import (UnmixingState, compute_B, row_update,
                             weighted_moments)
from oracles import per_iteration_objective

CONT = TargetSchema("y", "continuous")
CAT3 = TargetSchema("k", "categorical", n_classes=3)


def assert_descends(values, slack=1e-8):
    worst = 0.0
    for a, b in zip(values, values[1:]):
        worst = max(worst, b - a)
        assert b <= a + slack * max(1.0, abs(a)), \
            f"objective rose {a} -> {b}"
    return worst


# --- criterion 1: closed-form row update vs numeric minimization ---

def test_1_row_update_attains_numeric_minimum():
    # The closed form solves the row subproblem on the half-space of
    # candidate rows that keep the determinant's sign (its own convention;
    # the objective is strictly convex there, and reaching the mirrored
    # half-space would mean passing through a singular matrix).  The
    # numeric search therefore multi-starts inside that half-space:
    # simplex descent followed by a quasi-Newton polish, best of six.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        c_dim = int(rng.integers(2, 5))
        g = rng.normal(size=(c_dim, c_dim))
        a_c = g @ g.T
        while True:
            w = rng.normal(size=(c_dim, c_dim))
            if np.linalg.cond(w) < 100:
                break
        b_mat = rng.normal(size=(c_dim, c_dim))
        eta_u = float(rng.choice([0.1, 1.0, 10.0]))
        lam = float(rng.choice([0.0, 0.01]))
        comp = int(rng.integers(0, c_dim))

        new = row_update(UnmixingState.from_matrix(w), a_c, b_mat, comp,
                         eta_u, lam)

        def obj(row):
            cand = w.copy()
            cand[comp] = row
            return per_iteration_objective(cand, w, lambda c: a_c, b_mat,
                                           eta_u, lam)

        def same_side(row):
            # coefficient of the candidate on the old row; > 0 keeps det sign
            return np.linalg.solve(w.T, row)[comp]

        f_closed = obj(new.w[comp])
        assert same_side(new.w[comp]) > 0.0

        starts = [w[comp]]
        for _ in range(5):
            s = rng.normal(size=c_dim)
            starts.append(s if same_side(s) > 0 else -s)
        best = np.inf
        for s0 in starts:
            r = scipy.optimize.minimize(
                obj, s0, method="Nelder-Mead",
                options=dict(fatol=1e-13, xatol=1e-11, maxiter=20000,
                             maxfev=40000))
            r2 = scipy.optimize.minimize(obj, r.x, method="BFGS",
                                         options=dict(gtol=1e-12,
                                                      maxiter=500))
            for cand in (r, r2):
                if np.isfinite(cand.fun) and same_side(cand.x) > 0:
                    best = min(best, cand.fun)
        diff = abs(f_closed - best)
        worst = max(worst, diff)
        assert diff <= 1e-6, \
            f"closed form {f_closed} vs numeric {best} (diff {diff:.3g})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 1: closed-form row update within {worst:.2e} of "
          f"numeric minimum on 50 instances ({elapsed:.1f}s)")


# --- criteria 2 and 9 share one supervised instance ---

def descent_instance():
    # labels built from log-compressed spectral powers stay O(10); raw
    # powers at this scale would let the supervised pull overwhelm the
    # proximal term.  Rates sit at half their stability ceilings; the
    # modest auxiliary clamp keeps the exact and inexact weight updates
    # in the same attraction basin.
    fm = FeatureMapConfig(log_power=True)
    ds, mixing = gen_dataset("supervision", seed=3, n_trials=8, channels=3,
                             samples=256, n_targets=1, kappa=1.0, fm_cfg=fm)
    models = [init_model(t, fm.dim(ds.samples), Xoshiro256pp(9))
              for t in ds.targets]
    rg = compute_rate_guards(ds, models, lam=1e-3, mu=0.0, fm_cfg=fm)
    base = dict(iterations=200, eta_u=0.5 * rg.eta_u_max,
                eta_p=0.5 * rg.eta_p_max, lam=1e-3, mu=0.0,
                optimizer="sgd_wd", u_max=5.0, log_power=True, seed=0)
    return ds, mixing, base


def test_2_full_batch_descent_is_monotone():
    t0 = time.perf_counter()
    ds, mixing, base = descent_instance()
    res = fit_full_batch(ds, SolverConfig(**base), ground_truth=mixing)
    fs = [r.f_value for r in res.trace.records]
    assert len(fs) == 201
    assert_descends(fs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 2: F fell {fs[0]:.4f} -> {fs[-1]:.4f} without a "
          f"single increase over 200 iterations ({elapsed:.1f}s)")


# --- criterion 3: analytic gradients vs finite differences ---

def test_3_gradients_match_finite_differences():
    cases = [(CONT, False), (CONT, True), (CAT3, False), (CAT3, True)]
    cfg_t = 32
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for rep in range(100):
        schema, log_power = cases[rep % 4]
        cfg = FeatureMapConfig(window=16, hop=8, log_power=log_power)
        model = SupervisedTargetModel(
            schema,
            0.3 * rng.normal(size=theta_shape(schema, cfg.dim(cfg_t))))
        s = rng.normal(size=cfg_t)
        y = np.array([float(rng.normal()) if schema.kind == "continuous"
                      else float(rng.integers(3))])
        _, grad_s, grad_theta = batch_loss_grads(model, s[None, :], y, cfg)

        ds = rng.normal(size=cfg_t)
        lp, lm = batch_loss_grads(model, np.stack([s + h * ds, s - h * ds]),
                                  np.repeat(y, 2), cfg)[0]
        fd = (lp - lm) / (2 * h)
        err = abs(fd - grad_s[0] @ ds) / max(1.0, abs(fd))
        worst = max(worst, err)

        dth = rng.normal(size=model.theta.shape)
        mp = SupervisedTargetModel(schema, model.theta + h * dth)
        mm = SupervisedTargetModel(schema, model.theta - h * dth)
        lp = batch_loss_grads(mp, s[None, :], y, cfg)[0][0]
        lm = batch_loss_grads(mm, s[None, :], y, cfg)[0][0]
        fd = (lp - lm) / (2 * h)
        err = abs(fd - np.sum(grad_theta * dth)) / max(1.0, abs(fd))
        worst = max(worst, err)
        assert worst < 1e-5
    print(f"PASS criterion 3: max relative gradient error {worst:.2e} "
          f"over 100 directional checks of each gradient")


# --- criterion 4: separation metric properties ---

def test_4_amari_distance_properties():
    rng = np.random.default_rng(11)

    def well_conditioned(c):
        while True:
            m = rng.normal(size=(c, c))
            if np.linalg.cond(m) < 1e3:
                return m

    worst_aligned = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 7))
        a = well_conditioned(c)
        p = np.eye(c)[rng.permutation(c)]
        d = np.diag(rng.uniform(0.5, 2.0, size=c)
                    * rng.choice([-1.0, 1.0], size=c))
        val = amari_distance(d @ p @ np.linalg.inv(a), a)
        worst_aligned = max(worst_aligned, val)
        assert val < 1e-10

    least_generic = np.inf
    for _ in range(100):
        c = int(rng.integers(2, 7))
        val = amari_distance(well_conditioned(c), well_conditioned(c))
        least_generic = min(least_generic, val)
        assert val > 0.01

    exact = amari_distance(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
    assert exact == 1.0
    print(f"PASS criterion 4: aligned products <= {worst_aligned:.2e}, "
          f"generic products >= {least_generic:.3f}, shear case exactly 1.0")


# --- criterion 5: shared unmixing beats per-trial fourth-order baseline ---

def run_multi_trial_experiment(n_trials, channels, samples, iterations,
                               seeds):
    results = []
    for seed in seeds:
        ds, mixing = gen_dataset("multi_trial", seed, n_trials=n_trials,
                                 channels=channels, samples=samples)
        fobi_vals = [amari_distance(fobi(ds.signals[i]).w, mixing)
                     for i in range(n_trials)]
        cfg = SolverConfig(iterations=iterations, eta_u=0.1, lam=0.0,
                           batch_trials=10, batch_times=64,
                           trace_every=iterations, seed=seed)
        res = fit_stochastic(ds, cfg, ground_truth=mixing)
        results.append((res.trace.final().amari, fobi_vals))
    return results


def test_5_stochastic_fit_beats_per_trial_fobi():
    t0 = time.perf_counter()
    results = run_multi_trial_experiment(20, 5, 500, 3000, range(5))
    wins = sum(am < np.median(fv) for am, fv in results)
    elapsed = time.perf_counter() - t0
    assert wins >= 3, f"only {wins}/5 seeds beat the per-trial baseline"
    assert elapsed < 300.0
    ams = ", ".join(f"{am:.3f}" for am, _ in results)
    meds = ", ".join(f"{np.median(fv):.1f}" for _, fv in results)
    print(f"PASS criterion 5: {wins}/5 seeds beat the per-trial FOBI "
          f"median (fit: {ams}; FOBI: {meds}) ({elapsed:.0f}s)")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                    reason="long-running; set RUN_SLOW=1 to enable")
def test_5b_large_scale_margin_is_an_order_of_magnitude():
    results = run_multi_trial_experiment(80, 10, 1000, 10_000, range(5))
    fit_mean = float(np.mean([am for am, _ in results]))
    fobi_mean = float(np.mean(np.concatenate([fv for _, fv in results])))
    assert fit_mean <= 0.1 * fobi_mean
    print(f"PASS criterion 5 (slow): mean {fit_mean:.3f} vs per-trial "
          f"FOBI mean {fobi_mean:.3f}")


# --- criterion 6: supervision does not lower the success rate (both
# rates measure 1.00 here: no seed fails, so none is rescued) ---

def test_6_supervision_does_not_hurt_success_rate():
    t0 = time.perf_counter()
    fm = FeatureMapConfig(log_power=True)
    ds, mixing = gen_dataset("supervision", seed=7, n_trials=500,
                             channels=6, samples=256, n_targets=2,
                             kappa=5.0, fm_cfg=fm)
    base = dict(iterations=1000, eta_u=1e-3, eta_p=1e-3, optimizer="adamw",
                batch_trials=128, batch_times=128, trace_every=1000,
                log_power=True)
    finals = {}
    for lam in (0.0, 3e-5):
        vals = []
        for seed in range(20):
            cfg = SolverConfig(lam=lam, seed=seed, **base)
            try:
                res = fit_stochastic(ds, cfg, ground_truth=mixing)
                vals.append(res.trace.final().amari)
            except SolverAbort:
                vals.append(np.inf)   # a diverged run counts as a failure
        finals[lam] = np.array(vals)
    threshold = 3.0 * finals[0.0].min()
    unsup = success_rate(finals[0.0], threshold)
    sup = success_rate(finals[3e-5], threshold)
    elapsed = time.perf_counter() - t0
    assert sup >= unsup, \
        f"supervised rate {sup:.2f} below unsupervised {unsup:.2f}"
    assert elapsed < 1200.0
    print(f"PASS criterion 6: success rate {sup:.2f} with supervision vs "
          f"{unsup:.2f} without, threshold {threshold:.3f}, 20 seeds each "
          f"({elapsed:.0f}s)")


# --- criterion 7: minibatch estimators average back to full batch ---

def test_7_minibatch_estimators_are_unbiased():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(4, 2, 4))
    u_c = rng.uniform(0.5, 1.5, size=(4, 4))
    full_tr, full_tm = np.arange(4), np.arange(4)
    tr_subsets = [np.array(p) for p in combinations(range(4), 2)]
    tm_subsets = [np.array(p) for p in combinations(range(4), 2)]

    # every A_c as the solver builds it: the component-major batch and its
    # aux block, gathered with one index from (N, C, T) arrays
    u = np.stack([u_c, u_c[::-1]], axis=1)

    def moments(tr, tm):
        ix = np.ix_(np.arange(2), tr, tm)
        return weighted_moments(u.transpose(1, 0, 2)[ix],
                                z.transpose(1, 0, 2)[ix])

    want = moments(full_tr, full_tm)
    got = np.mean([moments(tr, tm)
                   for tr in tr_subsets for tm in tm_subsets], axis=0)
    err_a = float(np.max(np.abs(got - want)))
    assert err_a < 1e-12

    fm = FeatureMapConfig(window=2, hop=2)
    labels = rng.normal(size=(4, 1))
    model = SupervisedTargetModel(CONT, rng.normal(size=fm.dim(4)))
    w = np.eye(2) + 0.2 * rng.normal(size=(2, 2))

    def coupling(tr, tm):
        sub = z[tr]
        src = np.einsum("c,nct->nt", w[0], sub)
        _, grad_s, _ = batch_loss_grads(model, src, labels[tr, 0], fm,
                                        need_grad_theta=False)
        return compute_B([grad_s], sub[:, :, tm].transpose(1, 0, 2), tm)

    want = coupling(full_tr, full_tm)
    got = np.mean([coupling(tr, tm)
                   for tr in tr_subsets for tm in tm_subsets], axis=0)
    err_b = float(np.max(np.abs(got - want)))
    assert err_b < 1e-12

    src = np.einsum("d,ndt->nt", w[0], z)
    _, _, want = batch_loss_grads(model, src, labels[:, 0], fm)
    got = np.mean([batch_loss_grads(model, src[list(tr)],
                                    labels[list(tr), 0], fm)[2]
                   for tr in tr_subsets], axis=0)
    err_g = float(np.max(np.abs(got - want)))
    assert err_g < 1e-12
    print(f"PASS criterion 7: exhaustive subset means match full batch "
          f"(A {err_a:.1e}, coupling {err_b:.1e}, theta grad {err_g:.1e})")


# --- criterion 8: byte-identical reruns through the command line ---

def test_8_identical_flags_give_identical_artifacts(tmp_path):
    def run(argv):
        return cli_main([str(a) for a in argv])

    data = tmp_path / "ds"
    assert run(["gen", "--recipe", "supervision", "--seed", 5, "--out",
                data, "--trials", "6", "--channels", "3", "--samples", "64",
                "--targets", "1", "--kappa", "1", "--window", "16",
                "--hop", "8", "--log-power"]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text("\n".join([
        "iterations=6", "eta_u=0.05", "eta_p=1e-6", "lambda=0.001",
        "window=16", "hop=8", "log_power=true", "stochastic=true",
        "batch_trials=3", "batch_times=32", "seed=4"]) + "\n",
        encoding="utf-8")
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["fit", "--data", data, "--config", cfg, "--out", r1]) == 0
    assert run(["fit", "--data", data, "--config", cfg, "--out", r2]) == 0
    files = ["W.f64", "W.txt", "theta_0.f64", "trace.csv"]
    for name in files:
        assert filecmp.cmp(r1 / name, r2 / name, shallow=False), \
            f"{name} differs between identical runs"
    print(f"PASS criterion 8: {', '.join(files)} byte-identical across "
          f"two runs with the same flags and seed")


# --- criterion 9: inexact auxiliary update lands on the same answer ---

def test_9_proximal_aux_matches_exact_minimization():
    ds, mixing, base = descent_instance()
    exact = fit_full_batch(ds, SolverConfig(**base), ground_truth=mixing)
    prox = fit_full_batch(ds, SolverConfig(eta_a=1.0, **base),
                          ground_truth=mixing)
    fe = [r.f_value for r in exact.trace.records]
    fp = [r.f_value for r in prox.trace.records]
    assert_descends(fe)
    assert_descends(fp)
    rel = abs(fp[-1] - fe[-1]) / abs(fe[-1])
    assert rel < 1e-3
    print(f"PASS criterion 9: final objectives {fe[-1]:.6f} (exact) vs "
          f"{fp[-1]:.6f} (proximal) agree to {rel:.2e}; both descend")
