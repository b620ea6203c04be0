"""Outer loop: configuration, step-size guards, determinism, descent,
tracing, and failure modes."""

import filecmp
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mtsica import solver
from mtsica.data import Dataset, TargetSchema
from mtsica.likelihood import aux_exact, aux_proximal
from mtsica.metrics import amari_distance
from mtsica.prng import Xoshiro256pp
from mtsica.solver import (SolverAbort, SolverConfig, Trace,
                           _draw_invertible_init, compute_rate_guards,
                           fit_full_batch, fit_stochastic)
from mtsica.supervision import (FeatureMapConfig, SupervisedTargetModel,
                                batch_loss_grads, init_model, make_optimizer,
                                optimizer_step)
from mtsica.synthgen import gen_dataset
from mtsica.unmixing import compute_B, cyclic_sweep
from oracles import weighted_moments

FM16 = FeatureMapConfig(window=16, hop=8)
# log-compressed features keep label magnitudes O(10); raw powers at this
# scale lead the supervised coupling to overwhelm the proximal pull
FM16L = FeatureMapConfig(window=16, hop=8, log_power=True)


def small_unsup(seed=0, n=4, c=3, t=64):
    ds, mixing = gen_dataset("multi_trial", seed, n_trials=n, channels=c,
                             samples=t)
    return ds, mixing


def small_sup(seed=0, n=4, c=3, t=64, m=1):
    ds, mixing = gen_dataset("supervision", seed, n_trials=n, channels=c,
                             samples=t, n_targets=m, kappa=1.0, fm_cfg=FM16L)
    return ds, mixing


def sup_config(**kw):
    base = dict(iterations=5, eta_u=0.05, eta_p=1e-6, lam=1e-3, mu=0.0,
                window=16, hop=8, log_power=True, seed=0)
    base.update(kw)
    return SolverConfig(**base)


# --- configuration ---

def test_config_validation():
    for bad in [dict(iterations=-1), dict(eta_u=0.0), dict(eta_p=-1.0),
                dict(eta_a=0.0), dict(lam=-0.1), dict(mu=-0.1),
                dict(optimizer="rmsprop"),
                dict(trace_every=0), dict(u_max=0.0),
                dict(batch_trials=0), dict(batch_times=-3), dict(window=1),
                dict(hop=0),
                dict(lam=np.nan), dict(lam=np.inf), dict(mu=np.nan),
                dict(mu=np.inf), dict(init_scale=np.nan),
                dict(init_scale=np.inf), dict(init_scale=-np.inf),
                dict(eta_p=np.inf), dict(eta_p=np.nan),
                dict(eta_u=np.nan), dict(eta_a=np.nan),
                dict(u_max=np.nan)]:
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    SolverConfig(eta_u=np.inf, iterations=0)         # both explicitly legal
    SolverConfig(eta_a=np.inf, u_max=np.inf)         # exact aux, no clamp
    fm = SolverConfig(window=32, hop=4, log_power=True).feature_config
    assert (fm.window, fm.hop, fm.log_power) == (32, 4, True)


# --- step-size guards ---

def test_rate_guards_closed_form_plugins(monkeypatch):
    # one trial whose (C, T) signal has unit spectral norm
    z = np.zeros((1, 2, 16))
    z[0, 0, 0] = 1.0
    ds = Dataset(z, np.zeros((1, 1)),
                 (TargetSchema("y", "continuous"),))
    model = SupervisedTargetModel(ds.targets[0], np.zeros(FM16.dim(16)))
    monkeypatch.setattr(solver, "source_lipschitz", lambda *a: 1.0)
    monkeypatch.setattr(solver, "param_lipschitz", lambda *a: 9.0)
    g = compute_rate_guards(ds, [model], lam=0.5, mu=1.0, fm_cfg=FM16)
    assert g.avg_sq_signal_norm == pytest.approx(1.0, abs=1e-10)
    assert g.source_lipschitz == (1.0,)
    assert g.w_lipschitz == pytest.approx(1.0, abs=1e-10)
    assert g.eta_u_max == pytest.approx(1.0, rel=1e-9)   # 1/(2*0.5*1)
    assert g.eta_p_max == pytest.approx(0.1, rel=1e-12)  # 1/(9+1)


def test_rate_guards_absent_couplings_are_unbounded():
    ds, _ = small_unsup()
    g = compute_rate_guards(ds, [], lam=0.3, mu=0.0, fm_cfg=FM16)
    assert g.w_lipschitz == 0.0
    assert g.eta_u_max == np.inf
    assert g.eta_p_max == np.inf
    ds2, _ = small_sup()
    model = SupervisedTargetModel(ds2.targets[0],
                                  np.zeros(FM16L.dim(64)))
    g2 = compute_rate_guards(ds2, [model], lam=0.0, mu=0.0, fm_cfg=FM16L)
    assert g2.eta_u_max == np.inf               # lam = 0 decouples W
    assert 0.0 < g2.eta_p_max < np.inf


def test_rate_guards_estimates_are_positive_finite():
    ds, _ = small_sup()
    model = SupervisedTargetModel(ds.targets[0],
                                  0.01 * np.ones(FM16L.dim(64)))
    g = compute_rate_guards(ds, [model], lam=1e-3, mu=0.01, fm_cfg=FM16L)
    assert 0.0 < g.eta_u_max < np.inf
    assert 0.0 < g.eta_p_max < np.inf
    assert g.source_lipschitz[0] > 0.0 and np.isfinite(g.source_lipschitz[0])


# --- initialization and determinism ---

def test_zero_iterations_returns_replicable_init():
    ds, _ = small_sup()
    cfg = sup_config(iterations=0, mu=0.2)
    res = fit_full_batch(ds, cfg)
    rng = Xoshiro256pp(cfg.seed)
    want_state = _draw_invertible_init(rng, 3, cfg.init_scale)
    want_models = [init_model(s, FM16L.dim(64), rng, cfg.init_scale)
                   for s in ds.targets]
    assert np.array_equal(res.w_state.w, want_state.w)
    assert np.array_equal(res.models[0].theta, want_models[0].theta)
    assert [r.k for r in res.trace.records] == [0]
    assert np.isfinite(res.trace.final().f_value)


def test_full_batch_runs_are_bit_identical():
    ds, mixing = small_sup()
    cfg = sup_config()
    r1 = fit_full_batch(ds, cfg, ground_truth=mixing)
    r2 = fit_full_batch(ds, cfg, ground_truth=mixing)
    assert r1.w_state.w.tobytes() == r2.w_state.w.tobytes()
    assert r1.models[0].theta.tobytes() == r2.models[0].theta.tobytes()
    assert [t.f_value for t in r1.trace.records] == \
        [t.f_value for t in r2.trace.records]
    r3 = fit_full_batch(ds, replace(cfg, seed=1), ground_truth=mixing)
    assert r3.w_state.w.tobytes() != r1.w_state.w.tobytes()


def test_stochastic_runs_are_bit_identical():
    ds, _ = small_sup(n=6)
    cfg = sup_config(batch_trials=3, batch_times=32, seed=11)
    r1 = fit_stochastic(ds, cfg)
    r2 = fit_stochastic(ds, cfg)
    assert r1.w_state.w.tobytes() == r2.w_state.w.tobytes()
    assert r1.models[0].theta.tobytes() == r2.models[0].theta.tobytes()


# one full batch fit in a child process; prints the hex bytes of W, the
# heads and the trace's timing-free values
_FIT_BYTES = """
import sys
import numpy as np
from mtsica.data import Dataset, TargetSchema
from mtsica.solver import SolverConfig, fit_full_batch
from mtsica.synthgen import gen_dataset
if sys.argv[1] == "supervised":   # two heads on 13 x 8001 trials
    rng = np.random.default_rng(0)
    ds = Dataset(rng.laplace(size=(2, 13, 8001)), rng.normal(size=(2, 2)),
                 (TargetSchema("a", "continuous"),
                  TargetSchema("b", "continuous")))
    cfg = SolverConfig(iterations=3, eta_u=0.05, eta_p=1e-6, lam=1e-3,
                       window=16, hop=8, log_power=True)
else:
    ds, _ = gen_dataset("multi_trial", 0, n_trials=5, channels=16,
                        samples=2469)
    cfg = SolverConfig(iterations=10, eta_u=np.inf,
                       eta_a=float(sys.argv[1]))
res = fit_full_batch(ds, cfg)
rows = [(r.k, r.loss_unsup, r.loss_sup, r.f_value)
        for r in res.trace.records]
print(res.w_state.w.tobytes().hex(), np.array(rows).tobytes().hex(),
      *(m.theta.tobytes().hex() for m in res.models))
"""


def _child_outputs(code, *args):
    # stdout of ``code`` run under 1 and under 2 OpenBLAS threads
    env = {**os.environ,
           "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    return [subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True,
        text=True, check=True).stdout for threads in ("1", "2")]


@pytest.mark.parametrize("mode", ["inf", "1", "supervised"],
                         ids=["exact", "proximal", "supervised"])
def test_full_batch_bits_do_not_depend_on_blas_threads(mode):
    # every gemm of the fit runs on the calling thread (serial_matmul):
    # the A_c pass, the snapshot's per-trial W z on 8001-sample trials,
    # the heads' sources and the feature DFT, so 1 and 2 OpenBLAS threads
    # give the same bytes
    outs = _child_outputs(_FIT_BYTES, mode)
    assert outs[0] and outs[0] == outs[1]


# the per-trial product of the trace snapshot and of the proximal store's
# initial fill, on one 13 x 8001 trial; prints its hex bytes
_TRIAL_PRODUCT = """
import numpy as np
from mtsica.linalg import serial_matmul
rng = np.random.default_rng(0)
w = np.eye(13) + 0.3 * rng.normal(size=(13, 13))
z = rng.normal(size=(1, 13, 8001))
print(serial_matmul(w, z).tobytes().hex())
"""


def test_long_trial_product_does_not_depend_on_blas_threads():
    # np.matmul(w, z) of this size (1.35M multiply-adds) runs threaded
    # and gave other bytes under 2 threads than under 1
    outs = _child_outputs(_TRIAL_PRODUCT)
    assert outs[0] and outs[0] == outs[1]


# a head per channel scored on 13 x 8001 trials; prints each score's hex
_EVAL_SCORES = """
import numpy as np
from mtsica.data import Dataset, TargetSchema
from mtsica.metrics import evaluate_predictions
from mtsica.prng import Xoshiro256pp
from mtsica.supervision import FeatureMapConfig, init_model
rng = np.random.default_rng(0)
targets = tuple(TargetSchema(f"y{m}", "continuous") for m in range(13))
ds = Dataset(rng.laplace(size=(4, 13, 8001)), rng.normal(size=(4, 13)),
             targets)
w = np.eye(13) + 0.3 * rng.normal(size=(13, 13))
fm = FeatureMapConfig(window=16, hop=5, log_power=True)   # reads t = 8000
models = [init_model(t, fm.dim(8001), Xoshiro256pp(m), 0.1)
          for m, t in enumerate(targets)]
print(*(float(r.value).hex() for r in evaluate_predictions(w, models, ds, fm)))
"""


def test_eval_head_sources_do_not_depend_on_blas_threads():
    # eval forms the heads' sources as the fit does, one product on the
    # calling thread, so 1 and 2 OpenBLAS threads give the same scores;
    # np.matmul of these 13 rows runs threaded and gave other bytes
    outs = _child_outputs(_EVAL_SCORES)
    assert outs[0] and outs[0] == outs[1]


# a 3-class head's gradients on 2000 feature rows; prints their sha256
_CATEGORICAL_GRADS = """
import hashlib
import numpy as np
from mtsica.data import TargetSchema
from mtsica.supervision import SupervisedTargetModel, head_loss_grads
rng = np.random.default_rng(0)
phi = rng.normal(size=(2000, 231))
model = SupervisedTargetModel(TargetSchema("y", "categorical", n_classes=3),
                              rng.normal(size=(3, 231)))
labels = rng.integers(0, 3, size=2000).astype(np.float64)
_, grad_phi, grad_theta = head_loss_grads(model, phi, labels)
print(hashlib.sha256(grad_phi.tobytes()).hexdigest(),
      hashlib.sha256(grad_theta.tobytes()).hexdigest())
"""


def test_categorical_head_grads_do_not_depend_on_blas_threads():
    # the logits and both gradients run as serial_matmul; np.matmul of
    # these 1.4M multiply-adds runs threaded and gave other bytes under
    # 2 threads than under 1
    outs = _child_outputs(_CATEGORICAL_GRADS)
    assert outs[0] and outs[0] == outs[1]


def test_full_size_minibatches_reproduce_full_batch(tmp_path):
    # a batch that covers the dataset takes the full batch path: same W,
    # heads and trace bytes
    ds, mixing = small_sup(n=5)
    for extra in ({}, dict(trace_every=3, eta_a=0.5)):
        cfg = sup_config(batch_trials=5, batch_times=64, iterations=4,
                         **extra)
        full = fit_full_batch(ds, cfg, ground_truth=mixing)
        sto = fit_stochastic(ds, cfg, ground_truth=mixing)
        assert np.array_equal(full.w_state.w, sto.w_state.w)
        assert np.array_equal(full.models[0].theta, sto.models[0].theta)
        full.trace.to_csv(tmp_path / "full.csv", include_timing=False)
        sto.trace.to_csv(tmp_path / "sto.csv", include_timing=False)
        assert filecmp.cmp(tmp_path / "full.csv", tmp_path / "sto.csv",
                           shallow=False)


@pytest.mark.parametrize("eta_a", [np.inf, 0.5], ids=["exact", "proximal"])
def test_stochastic_fit_matches_reference_loop(eta_a):
    # the documented iteration rebuilt from the unit-tested pieces must
    # reproduce the solver bit for bit
    ds, mixing = small_sup(n=6, m=2)
    cfg = sup_config(iterations=3, batch_trials=3, batch_times=32, seed=5,
                     lam=1e-3, mu=0.1, eta_p=1e-3, optimizer="adamw",
                     eta_a=eta_a)
    res = fit_stochastic(ds, cfg, ground_truth=mixing)

    z, labels = ds.signals, ds.labels
    n_all, c_dim, t_all = z.shape
    rng = Xoshiro256pp(cfg.seed)
    state = _draw_invertible_init(rng, c_dim, cfg.init_scale)
    models = [init_model(s, FM16L.dim(t_all), rng, cfg.init_scale)
              for s in ds.targets]
    opts = [make_optimizer(cfg.optimizer, cfg.eta_p, m.theta)
            for m in models]
    aux = aux_exact(np.matmul(state.w, z), cfg.u_max)
    aux_t, z_t = aux.transpose(1, 0, 2), z.transpose(1, 0, 2)

    def snapshot(k):
        x = np.matmul(state.w, z)
        loss_sup = 0.0
        for m, model in enumerate(models):
            losses, _, _ = batch_loss_grads(model, x[:, m, :], labels[:, m],
                                            FM16L, need_grad_s=False,
                                            need_grad_theta=False)
            loss_sup += float(losses.sum() / n_all)
        # the exact step's F takes the bound at the exact weights of W
        u = aux if eta_a < np.inf else aux_exact(x, cfg.u_max)
        bound = 0.5 * u * x * x + 0.5 / u
        f_value = float(-state.logabsdet + bound.sum() / (n_all * t_all)
                        + cfg.lam * loss_sup + 0.5 * cfg.mu * sum(
                            float(np.sum(m.theta ** 2)) for m in models))
        loss_unsup = float(-state.logabsdet
                           + np.abs(x).sum() / (n_all * t_all))
        return (k, loss_unsup, loss_sup, f_value,
                float(amari_distance(state.w, mixing)))

    want = [snapshot(0)]
    for k in range(1, cfg.iterations + 1):
        trials = rng.subset(n_all, cfg.batch_trials)
        times = rng.subset(t_all, cfg.batch_times)
        heads = np.matmul(state.w[:len(models)], z[trials])   # (n, M, T)
        sources = [heads[:, m] for m in range(len(models))]
        for m, (model, opt) in enumerate(zip(models, opts)):
            _, _, grad = batch_loss_grads(model, sources[m],
                                          labels[trials, m], FM16L,
                                          need_grad_s=False)
            model.theta = optimizer_step(opt, model.theta, grad, cfg.mu)
        ix = np.ix_(np.arange(c_dim), trials, times)
        batch = z_t[ix]                              # (C, n, tau)
        x = state.w @ batch.reshape(c_dim, -1)
        if eta_a == np.inf:
            u_batch = aux_exact(x, cfg.u_max)
        else:
            u_batch = aux_proximal(x, aux_t[ix].reshape(c_dim, -1),
                                   cfg.eta_a, cfg.u_max)
        aux_t[ix] = u_batch.reshape(batch.shape)
        grads = [batch_loss_grads(model, sources[m], labels[trials, m],
                                  FM16L, need_grad_theta=False)[1]
                 for m, model in enumerate(models)]
        b_mat = compute_B(grads, batch, times)
        a_set = weighted_moments(u_batch, batch)
        state = cyclic_sweep(state, a_set.__getitem__, b_mat, cfg.eta_u,
                             cfg.lam)
        want.append(snapshot(k))

    assert np.array_equal(res.w_state.w, state.w)
    for got_model, want_model in zip(res.models, models):
        assert np.array_equal(got_model.theta, want_model.theta)
    got = np.array([(r.k, r.loss_unsup, r.loss_sup, r.f_value, r.amari)
                    for r in res.trace.records])
    want = np.array(want)
    # k, the head losses and Amari keep their bits; the solver sums g(x)
    # and the bound blockwise, so loss_unsup and F agree to rounding
    assert np.array_equal(got[:, [0, 2, 4]], want[:, [0, 2, 4]])
    np.testing.assert_allclose(got[:, [1, 3]], want[:, [1, 3]], rtol=1e-12,
                               atol=0.0)


@pytest.mark.parametrize("eta_a", [np.inf, 0.5], ids=["exact", "proximal"])
def test_full_batch_fit_matches_reference_loop(eta_a):
    # the full batch iteration rebuilt with fresh sources W z at every
    # step: the exact step takes W z, its weights and the A_c in one
    # blocked pass and keeps no aux store
    ds, mixing = small_sup(n=5, m=1)
    cfg = sup_config(iterations=5, trace_every=2, lam=1e-3, mu=0.1,
                     eta_p=1e-3, optimizer="adamw", eta_a=eta_a)
    hooked = {}

    def hook(k, state, models, aux):
        hooked[k] = None if aux is None else aux.copy()

    res = fit_full_batch(ds, cfg, ground_truth=mixing, _iter_hook=hook)

    z, labels = ds.signals, ds.labels
    n_all, c_dim, t_all = z.shape
    rng = Xoshiro256pp(cfg.seed)
    state = _draw_invertible_init(rng, c_dim, cfg.init_scale)
    models = [init_model(s, FM16L.dim(t_all), rng, cfg.init_scale)
              for s in ds.targets]
    opts = [make_optimizer(cfg.optimizer, cfg.eta_p, m.theta)
            for m in models]
    batch = np.ascontiguousarray(z.transpose(1, 0, 2))        # (C, N, T)

    def fresh_sources():
        return state.w @ batch.reshape(c_dim, -1)

    def as_nct(u):
        return u.reshape(batch.shape).transpose(1, 0, 2)

    def snapshot(k, u):
        x = np.matmul(state.w, z)
        if eta_a == np.inf:
            u = aux_exact(x, cfg.u_max)
        losses, _, _ = batch_loss_grads(models[0], x[:, 0, :], labels[:, 0],
                                        FM16L, need_grad_s=False,
                                        need_grad_theta=False)
        loss_sup = float(losses.sum() / n_all)
        bound = 0.5 * u * x * x + 0.5 / u
        f_value = float(-state.logabsdet + bound.sum() / (n_all * t_all)
                        + cfg.lam * loss_sup
                        + 0.5 * cfg.mu * float(np.sum(models[0].theta ** 2)))
        loss_unsup = float(-state.logabsdet
                           + np.abs(x).sum() / (n_all * t_all))
        return (k, loss_unsup, loss_sup, f_value,
                float(amari_distance(state.w, mixing)))

    aux = aux_exact(fresh_sources(), cfg.u_max)       # (C, N*T)
    want_aux = {0: as_nct(aux).copy()}
    want = [snapshot(0, as_nct(aux))]
    for k in range(1, cfg.iterations + 1):
        head_sources = np.matmul(state.w[:1], z)[:, 0]
        _, _, grad = batch_loss_grads(models[0], head_sources, labels[:, 0],
                                      FM16L, need_grad_s=False)
        models[0].theta = optimizer_step(opts[0], models[0].theta, grad,
                                         cfg.mu)
        x = fresh_sources()
        if eta_a == np.inf:
            aux = aux_exact(x, cfg.u_max)
        else:
            aux = aux_proximal(x, aux, cfg.eta_a, cfg.u_max)
        grad_s = batch_loss_grads(models[0], head_sources, labels[:, 0],
                                  FM16L, need_grad_theta=False)[1]
        b_mat = compute_B([grad_s], batch, slice(None))
        a_set = weighted_moments(aux, batch)
        state = cyclic_sweep(state, a_set.__getitem__, b_mat, cfg.eta_u,
                             cfg.lam)
        want_aux[k] = as_nct(aux).copy()
        if k % cfg.trace_every == 0 or k == cfg.iterations:
            want.append(snapshot(k, as_nct(aux)))

    assert np.array_equal(res.w_state.w, state.w)
    assert np.array_equal(res.models[0].theta, models[0].theta)
    assert sorted(hooked) == sorted(want_aux)
    for k, u in want_aux.items():
        if eta_a == np.inf:
            assert hooked[k] is None
        else:
            assert hooked[k].shape == z.shape
            assert np.array_equal(hooked[k], u)
    got = [(r.k, r.loss_unsup, r.loss_sup, r.f_value, r.amari)
           for r in res.trace.records]
    assert [g[0] for g in got] == [w[0] for w in want] == [0, 2, 4, 5]
    np.testing.assert_allclose(np.array(got), np.array(want), rtol=1e-12,
                               atol=0.0)


def test_full_batch_fit_of_a_doubled_dataset_is_the_same_fit():
    # A_c, B, F and the head gradients are all means over the batch, so
    # the dataset concatenated with itself gives the same fit to rounding
    ds, mixing = small_sup(n=5, m=1)
    doubled = Dataset(np.concatenate([ds.signals, ds.signals]),
                      np.concatenate([ds.labels, ds.labels]), ds.targets)
    cfg = sup_config(iterations=5, lam=1e-3, mu=0.1, eta_p=1e-3,
                     optimizer="adamw")
    one, two = (fit_full_batch(d, cfg, ground_truth=mixing)
                for d in (ds, doubled))
    np.testing.assert_allclose(two.w_state.w, one.w_state.w, rtol=0.0,
                               atol=1e-10)
    assert len(two.trace.records) == len(one.trace.records) == 6
    for a, b in zip(one.trace.records, two.trace.records):
        np.testing.assert_allclose([b.loss_unsup, b.loss_sup, b.f_value],
                                   [a.loss_unsup, a.loss_sup, a.f_value],
                                   rtol=1e-12, atol=0.0)


def _max_rel(got, want):
    """Largest absolute difference, relative to the largest entry."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("recipe, kw", [
    ("multi_trial", dict(eta_u=np.inf)),                  # exact aux step
    ("multi_trial", dict(eta_u=1.0, eta_a=1.0)),          # proximal
    ("supervision", dict(lam=1e-3, window=16, hop=8, log_power=True)),
])
def test_full_batch_fit_of_permuted_trials_is_the_same_fit(recipe, kw):
    # every batch quantity is a mean over trials, so permuting the trials
    # (labels with them) changes only the summation order.  3 iterations:
    # a last-bit difference reaches ~1e-8 in W by iteration 10 and ~1e-2
    # by iteration 60 on these instances, before the fits converge again
    if recipe == "multi_trial":
        ds, _ = gen_dataset(recipe, 0, n_trials=12, channels=4, samples=300)
    else:
        ds, _ = gen_dataset(recipe, 0, n_trials=12, channels=4, samples=128,
                            n_targets=2, kappa=1.0, fm_cfg=FM16L)
    perm = Xoshiro256pp(1).permutation(ds.n_trials)
    cfg = SolverConfig(iterations=3, **kw)

    def diffs(labels):
        one = fit_full_batch(ds, cfg)
        two = fit_full_batch(Dataset(ds.signals[perm], labels, ds.targets),
                             cfg)
        assert len(two.trace.records) == len(one.trace.records) == 4
        return ([_max_rel(two.w_state.w, one.w_state.w)]
                + [_max_rel(b.theta, a.theta)
                   for a, b in zip(one.models, two.models)]
                + [abs(b.f_value / a.f_value - 1.0)
                   for a, b in zip(one.trace.records, two.trace.records)])

    assert max(diffs(ds.labels[perm])) < 1e-10
    if ds.n_targets:  # the labels must follow their trials
        assert max(diffs(ds.labels)) > 1e-3


def test_every_config_field_changes_the_fit():
    # a knob that changes neither W, a theta nor the trace does nothing;
    # the base turns every mode on so that each knob has work to do
    ds, mixing = small_sup(n=6, m=2)
    base = dict(iterations=3, eta_u=0.05, eta_p=1e-3, eta_a=0.5, lam=1e-3,
                mu=0.1, optimizer="adamw",
                batch_trials=3, batch_times=32, window=16, hop=8,
                log_power=True, u_max=2.0, seed=5)
    changed = dict(iterations=2, eta_u=0.1, eta_p=2e-3, eta_a=0.25,
                   lam=2e-3, mu=0.2, optimizer="sgd_wd",
                   batch_trials=4, batch_times=48, seed=6, trace_every=2,
                   window=8, hop=4, log_power=False, u_max=3.0,
                   init_scale=0.02)
    assert set(changed) == {f.name for f in fields(SolverConfig)}

    def outcome(cfg):
        res = fit_stochastic(ds, cfg, ground_truth=mixing)
        return (res.w_state.w.tobytes(),
                [m.theta.tobytes() for m in res.models],
                [(r.k, r.loss_unsup, r.loss_sup, r.f_value, r.amari)
                 for r in res.trace.records])

    want = outcome(SolverConfig(**base))
    dead = []
    for name, value in changed.items():
        try:
            cfg = SolverConfig(**{**base, name: value})
        except ValueError:
            continue                     # rejected: not silently ignored
        if outcome(cfg) == want:
            dead.append(name)
    assert dead == []


def test_retired_settings_are_not_fields():
    # the AdamW constants and the log floor are fixed in supervision, the
    # source density is the Laplace likelihood
    for name in ("beta1", "beta2", "eps", "log_eps", "density"):
        with pytest.raises(TypeError):
            SolverConfig(**{name: 0.5})
    assert len(fields(SolverConfig)) == 16


def test_u_max_inf_rejects_a_sample_zero_in_every_channel():
    # W z = 0 there for every W: the exact Laplace weight is infinite
    z = np.random.default_rng(4).laplace(size=(4, 3, 64))
    z[1, :, 10] = 0.0
    ds = Dataset(z, np.zeros((4, 0)), ())
    for batch in (dict(), dict(batch_trials=2, batch_times=16)):
        cfg = SolverConfig(iterations=2, u_max=np.inf, **batch)
        with pytest.raises(ValueError, match="trial 1 .* time 10"):
            fit_stochastic(ds, cfg)
    # the clamp keeps the weight finite
    res = fit_stochastic(ds, SolverConfig(iterations=2))
    assert all(np.isfinite(r.loss_unsup) for r in res.trace.records)
    z[1, 0, 10] = 1e-3                   # one nonzero channel is enough
    fit_stochastic(Dataset(z, np.zeros((4, 0)), ()),
                   SolverConfig(iterations=2, u_max=np.inf))


def test_minibatch_larger_than_dataset_rejected():
    ds, _ = small_sup(n=4)
    with pytest.raises(ValueError):
        fit_stochastic(ds, sup_config(batch_trials=5))
    with pytest.raises(ValueError):
        fit_stochastic(ds, sup_config(batch_times=65))


def test_ground_truth_shape_checked():
    ds, _ = small_unsup()
    with pytest.raises(ValueError):
        fit_full_batch(ds, SolverConfig(iterations=1),
                       ground_truth=np.eye(4))


# --- descent and trace content ---

def test_unsupervised_full_batch_descends_monotonically():
    ds, mixing = small_unsup()
    cfg = SolverConfig(iterations=60, eta_u=0.1, lam=0.0, seed=0)
    res = fit_full_batch(ds, cfg, ground_truth=mixing)
    fs = [r.f_value for r in res.trace.records]
    for a, b in zip(fs, fs[1:]):
        assert b <= a + 1e-8 * max(1.0, abs(a))
    assert fs[-1] < fs[0]
    assert all(r.amari is not None and r.amari >= 0.0
               for r in res.trace.records)


def test_amari_absent_without_ground_truth():
    ds, _ = small_unsup()
    res = fit_full_batch(ds, SolverConfig(iterations=2))
    assert all(r.amari is None for r in res.trace.records)


def test_trace_schedule_includes_final_iteration():
    ds, _ = small_unsup()
    res = fit_full_batch(ds, SolverConfig(iterations=10, trace_every=4))
    assert [r.k for r in res.trace.records] == [0, 4, 8, 10]


def test_objective_snapshot_matches_independent_assembly():
    # recompute F from hook-captured (W, theta) and the exact weights U of
    # W with its fully written-out definition and compare to the trace
    ds, _ = small_sup()
    cfg = sup_config(iterations=3, mu=0.1, lam=1e-3)
    grabbed = {}

    def hook(k, state, models, aux):
        grabbed[k] = (state.w.copy(), [m.theta.copy() for m in models])

    res = fit_full_batch(ds, cfg, _iter_hook=hook)
    for rec in res.trace.records:
        w, thetas = grabbed[rec.k]
        n, _, t = ds.signals.shape
        x = np.einsum("cd,ndt->nct", w, ds.signals)
        u = aux_exact(x, cfg.u_max)
        val = -np.log(abs(np.linalg.det(w)))
        val += np.sum(0.5 * u * x * x + 0.5 / u) / (n * t)
        model = SupervisedTargetModel(ds.targets[0], thetas[0])
        losses, _, _ = batch_loss_grads(model, x[:, 0, :], ds.labels[:, 0],
                                        FM16L, need_grad_s=False,
                                        need_grad_theta=False)
        val += cfg.lam * float(losses.sum() / n)
        val += 0.5 * cfg.mu * float(np.sum(thetas[0] ** 2))
        assert rec.f_value == pytest.approx(val, rel=1e-10)


def test_proximal_iterates_settle(tmp_path):
    # the three-block iterate gap must drop below 1e-8 within the budget
    ds, _ = gen_dataset("multi_trial", 5, n_trials=6, channels=3,
                        samples=128)
    cfg = SolverConfig(iterations=2000, eta_u=0.3, lam=0.0,
                       eta_a=1.0, u_max=1.0,
                       trace_every=2000, seed=0)
    prev = {}
    gaps = []

    def hook(k, state, models, aux):
        if prev:
            gap = float(np.sum((state.w - prev["w"]) ** 2)
                        + np.sum((aux - prev["u"]) ** 2))
            gaps.append(gap)
        prev["w"] = state.w.copy()
        prev["u"] = aux.copy()

    fit_full_batch(ds, cfg, _iter_hook=hook)
    below = [i for i, g in enumerate(gaps, start=1) if g < 1e-8]
    assert below, f"iterate gap never below 1e-8; min {min(gaps):.3g}"
    assert below[0] <= 2000


# --- memory and blocking of the full-dataset passes ---

@pytest.mark.parametrize("fit, eta_a, bound", [
    (fit_stochastic, np.inf, 1.2), (fit_full_batch, np.inf, 3.7),
    (fit_stochastic, 0.5, 2.2), (fit_full_batch, 0.5, 4.7)],
    ids=["fit_stochastic-1.2", "fit_full_batch-3.7",
         "fit_stochastic-proximal-2.2", "fit_full_batch-proximal-4.7"])
def test_fit_holds_no_dataset_size_scratch(fit, eta_a, bound):
    # the exact step keeps no aux store: beside the signals a stochastic
    # fit holds only minibatch-size arrays, a full batch fit the
    # component-major batch and its heads' features; the snapshots walk
    # blocks of trials (4 blocks here).  The proximal step adds its store
    # and only block-size Newton temporaries.  Measured peaks: 0.71 and
    # 3.17 (exact), 1.71 and 4.17 (proximal).
    ds, mixing = small_sup(n=400, c=6, t=256, m=2)
    cfg = sup_config(iterations=6, trace_every=2, eta_p=1e-6, lam=3e-5,
                     batch_trials=32, batch_times=64, eta_a=eta_a)
    tracemalloc.start()
    try:
        fit(ds, cfg, ground_truth=mixing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * ds.signals.nbytes


@pytest.mark.parametrize("fit", [fit_stochastic, fit_full_batch])
@pytest.mark.parametrize("eta_a", [np.inf, 0.5], ids=["exact", "proximal"])
def test_blocked_snapshot_matches_whole_array_oracle(fit, eta_a,
                                                     monkeypatch):
    # blocks of 2 trials over 7 (the last one ragged) change no iterate,
    # and the trace equals its definition evaluated on whole arrays
    ds, mixing = small_sup(n=7, m=2)
    cfg = sup_config(iterations=4, trace_every=2, batch_trials=3,
                     batch_times=32, mu=0.1, eta_a=eta_a)
    default = fit(ds, cfg, ground_truth=mixing)
    grabbed = {}

    def hook(k, state, models, aux):
        grabbed[k] = (state, [m.theta.copy() for m in models],
                      None if aux is None else aux.copy())

    monkeypatch.setattr(solver, "_SNAP_ENTRIES", 3 * 64 - 1)
    res = fit(ds, cfg, ground_truth=mixing, _iter_hook=hook)
    assert np.array_equal(res.w_state.w, default.w_state.w)
    for got, want in zip(res.models, default.models):
        assert np.array_equal(got.theta, want.theta)

    z, labels = ds.signals, ds.labels
    n, _, t = z.shape
    state0, _, aux0 = grabbed[0]
    if eta_a < np.inf:
        assert np.array_equal(aux0,
                              aux_exact(np.matmul(state0.w, z), cfg.u_max))
    else:
        assert aux0 is None          # the exact step keeps no store
    assert [r.k for r in res.trace.records] == [0, 2, 4]
    for rec in res.trace.records:
        state, thetas, u = grabbed[rec.k]
        x = np.matmul(state.w, z)
        if eta_a == np.inf:
            u = aux_exact(x, cfg.u_max)
        loss_sup = 0.0
        for m, schema in enumerate(ds.targets):
            model = SupervisedTargetModel(schema, thetas[m])
            losses, _, _ = batch_loss_grads(model, x[:, m, :], labels[:, m],
                                            FM16L, need_grad_s=False,
                                            need_grad_theta=False)
            loss_sup += float(losses.sum() / n)
        loss_unsup = -state.logabsdet + np.abs(x).sum() / (n * t)
        f_value = (-state.logabsdet
                   + (0.5 * u * x * x + 0.5 / u).sum() / (n * t)
                   + cfg.lam * loss_sup
                   + 0.5 * cfg.mu * sum(float(np.sum(th ** 2))
                                        for th in thetas))
        np.testing.assert_allclose(
            [rec.loss_unsup, rec.loss_sup, rec.f_value],
            [loss_unsup, loss_sup, f_value], rtol=1e-12, atol=0.0)
        assert rec.amari == amari_distance(state.w, mixing)


# --- failure paths ---

def test_logdet_collapse_aborts_with_state():
    # enormous signal scale drives the whitening det below the floor
    rng = np.random.default_rng(21)
    z = 1e30 * rng.normal(size=(3, 2, 32))
    ds = Dataset(z, np.zeros((3, 0)), ())
    with pytest.raises(SolverAbort) as exc:
        fit_full_batch(ds, SolverConfig(iterations=20, eta_u=np.inf))
    err = exc.value
    assert "det" in str(err)
    assert err.trace.records and err.trace.records[0].k == 0
    assert err.w_state.w.shape == (2, 2)


def test_solver_abort_pickles_with_its_state():
    ds, _ = small_sup()
    res = fit_full_batch(ds, sup_config(iterations=2))
    err = SolverAbort("numerical abort: head 0 diverged at iteration 3",
                      res.trace, res.w_state, res.models)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SolverAbort
    assert str(back) == str(err)
    assert back.trace.records == res.trace.records
    assert back.w_state.w.tobytes() == res.w_state.w.tobytes()
    assert back.w_state.logabsdet == res.w_state.logabsdet
    assert [m.schema for m in back.models] == [m.schema for m in res.models]
    assert [m.theta.tobytes() for m in back.models] == \
        [m.theta.tobytes() for m in res.models]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_head_aborts_with_last_good_state():
    # raw spectral powers and a large head step: theta blows up while
    # lambda = 0 leaves W alone, so only the heads' own losses show it.
    # Here head 1 diverges first, after head 0 took its step of that
    # iteration, and the abort hands back both heads as they were.  Trace
    # rows come only at k = 0 and 60: the row of iteration k - 1 reads
    # every trial at the W and theta the minibatch check reads at k, so it
    # would abort first (see the next test).
    ds, _ = gen_dataset("supervision", 1, n_trials=40, channels=3,
                        samples=128, n_targets=2, fm_cfg=FM16)
    cfg = SolverConfig(iterations=60, eta_p=0.1, lam=0.0, batch_trials=16,
                       batch_times=64, window=16, hop=8, trace_every=60)
    seen = {}

    def hook(k, state, models, aux):
        seen[k] = (state.w, [m.theta.copy() for m in models])

    with pytest.raises(SolverAbort,
                       match=r"head \d diverged at iteration \d+$") as exc:
        fit_stochastic(ds, cfg, _iter_hook=hook)
    err = exc.value
    k = int(str(err).rsplit(" ", 1)[1])
    assert 1 < k <= cfg.iterations and max(seen) == k - 1
    assert [r.k for r in err.trace.records] == [0]
    w_good, thetas_good = seen[k - 1]
    assert np.array_equal(err.w_state.w, w_good)
    for model, theta in zip(err.models, thetas_good):
        assert np.array_equal(model.theta, theta)
        assert np.isfinite(model.theta).all()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_trace_row_aborts_and_ends_the_trace_at_the_last_finite_row():
    # the fit above with a row after every iteration: the row of the
    # iteration whose heads overflow is not appended, and the abort hands
    # back W and the heads of the row before it
    ds, _ = gen_dataset("supervision", 1, n_trials=40, channels=3,
                        samples=128, n_targets=2, fm_cfg=FM16)
    cfg = SolverConfig(iterations=60, eta_p=0.1, lam=0.0, batch_trials=16,
                       batch_times=64, window=16, hop=8)
    seen = {}

    def hook(k, state, models, aux):
        seen[k] = (state.w, [m.theta.copy() for m in models])

    with pytest.raises(SolverAbort,
                       match=r"head \d diverged at iteration \d+$") as exc:
        fit_stochastic(ds, cfg, _iter_hook=hook)
    err = exc.value
    k = int(str(err).rsplit(" ", 1)[1])
    assert 1 < k <= cfg.iterations and max(seen) == k
    assert [r.k for r in err.trace.records] == list(range(k))
    assert all(np.isfinite(r.loss_sup) and np.isfinite(r.f_value)
               for r in err.trace.records)
    w_good, thetas_good = seen[k - 1]
    assert np.array_equal(err.w_state.w, w_good)
    for model, theta in zip(err.models, thetas_good):
        assert np.array_equal(model.theta, theta)


# --- CSV serialization ---

def test_trace_csv_layout_and_byte_stability(tmp_path):
    ds, mixing = small_unsup()
    cfg = SolverConfig(iterations=4, eta_u=0.1)
    p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "t.csv"))
    res = fit_full_batch(ds, cfg, ground_truth=mixing)
    res.trace.to_csv(p1, header_lines=("run 1", "eta_u=0.1"),
                     include_timing=False)
    fit_full_batch(ds, cfg, ground_truth=mixing).trace.to_csv(
        p2, header_lines=("run 1", "eta_u=0.1"), include_timing=False)
    assert filecmp.cmp(p1, p2, shallow=False)      # timing suppressed

    lines = p1.read_text().splitlines()
    assert lines[0] == "# run 1" and lines[1] == "# eta_u=0.1"
    assert lines[2] == Trace.HEADER
    assert len(lines) == 3 + 5                     # k = 0..4
    first = lines[3].split(",")
    assert first[0] == "0" and first[5] == ""      # no wall time
    assert float(first[3]) == pytest.approx(res.trace.records[0].f_value)

    res.trace.to_csv(p3, include_timing=True)
    row = p3.read_text().splitlines()[1].split(",")
    assert float(row[5]) >= 0.0                    # wall time present


def test_trace_csv_empty_fields_for_unavailable_values(tmp_path):
    ds, _ = small_unsup()
    res = fit_full_batch(ds, SolverConfig(iterations=2))
    path = tmp_path / "h.csv"
    res.trace.to_csv(path, include_timing=False)
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[3] != "" and cells[4] == ""   # F, no amari
