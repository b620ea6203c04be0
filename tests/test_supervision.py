"""Feature map + adjoint, supervised losses/gradients, optimizers,
and the numeric smoothness constants."""

import numpy as np
import pytest

from mtsica.data import TargetSchema
from mtsica.prng import Xoshiro256pp
from mtsica.supervision import (FeatureMapConfig, SupervisedTargetModel,
                                _adjoint_from_ctx, _forward,
                                batch_loss_grads, feature_map_batch,
                                init_model, make_optimizer, optimizer_step,
                                param_lipschitz, predict_batch,
                                source_lipschitz, theta_shape)

CONT = TargetSchema("y", "continuous")
CAT3 = TargetSchema("k", "categorical", n_classes=3)


def naive_feature_map(s, cfg):
    # textbook O(w^2) DFT per window, kept deliberately independent of
    # the vectorized implementation
    w, h = cfg.window, cfg.hop
    n_win = (len(s) - w) // h + 1
    out = []
    for j in range(n_win):
        seg = s[j * h: j * h + w]
        for k in range(w // 2 + 1):
            re = sum(seg[t] * np.cos(-2 * np.pi * k * t / w) for t in range(w))
            im = sum(seg[t] * np.sin(-2 * np.pi * k * t / w) for t in range(w))
            p = re * re + im * im
            out.append(np.log(p + 1e-6) if cfg.log_power else p)
    return np.array(out)


# --- feature map ---

def test_feature_dimensions():
    cfg = FeatureMapConfig(window=16, hop=8)
    assert cfg.n_windows(32) == 3
    assert cfg.n_bins == 9
    assert cfg.dim(32) == 27
    with pytest.raises(ValueError):
        cfg.dim(10)                   # T < window


def test_feature_map_constant_signal():
    # full-signal window: DFT of all-ones has w^2 power at DC, 0 elsewhere
    cfg = FeatureMapConfig(window=8, hop=1)
    phi = feature_map_batch(np.ones((1, 8)), cfg)[0]
    want = np.zeros(5)
    want[0] = 64.0
    assert np.allclose(phi, want, atol=1e-10)


def test_feature_map_zero_signal():
    cfg = FeatureMapConfig(window=8, hop=4)
    assert np.allclose(feature_map_batch(np.zeros((1, 16)), cfg), 0.0)
    logcfg = FeatureMapConfig(window=8, hop=4, log_power=True)
    assert np.allclose(feature_map_batch(np.zeros((1, 16)), logcfg),
                       np.log(1e-6))


@pytest.mark.parametrize("log_power", [False, True])
def test_feature_map_matches_naive_dft(log_power):
    cfg = FeatureMapConfig(window=16, hop=8, log_power=log_power)
    s = np.random.default_rng(0).normal(size=32)
    phi = feature_map_batch(s[None, :], cfg)[0]
    assert phi.shape == (27,)
    assert np.max(np.abs(phi - naive_feature_map(s, cfg))) < 1e-10


def test_feature_map_batch_stacks_rows():
    cfg = FeatureMapConfig(window=8, hop=4)
    batch = np.random.default_rng(1).normal(size=(5, 24))
    phi = feature_map_batch(batch, cfg)
    assert phi.shape == (5, cfg.dim(24))
    for i in range(5):
        assert np.array_equal(phi[i], feature_map_batch(batch[i:i + 1],
                                                        cfg)[0])


@pytest.mark.parametrize("window", [2, 7, 16, 64])
def test_dft_table_matches_rfft(window):
    # _forward's [re | im] against pocketfft, window by window
    cfg = FeatureMapConfig(window=window, hop=max(1, window // 3))
    rng = np.random.default_rng(window)
    batch = 100.0 * rng.normal(size=(3, 3 * window + 1))
    n_win = cfg.n_windows(batch.shape[1])
    frames = np.array([row[j * cfg.hop:j * cfg.hop + window]
                       for row in batch for j in range(n_win)])
    _, (ri, _) = _forward(batch, cfg)
    n_bins = cfg.n_bins
    re, im = ri[:, :n_bins], ri[:, n_bins:]
    want = np.fft.rfft(frames, axis=1)
    tol = 1e-12 * np.linalg.norm(frames, axis=1)[:, None]
    assert np.all(np.abs(re - want.real) <= tol)
    assert np.all(np.abs(im - want.imag) <= tol)
    assert np.all(im[:, 0] == 0.0)
    if window % 2 == 0:
        assert np.all(im[:, -1] == 0.0)


@pytest.mark.parametrize("log_power", [False, True])
def test_feature_adjoint_matches_jacobian_transpose(log_power):
    # <J v, ds> == <v, J^T ds> for random directions
    cfg = FeatureMapConfig(window=8, hop=4, log_power=log_power)
    rng = np.random.default_rng(2)
    s = rng.normal(size=20)
    v = rng.normal(size=cfg.dim(20))
    _, ctx = _forward(s[None, :], cfg)
    jt_v = _adjoint_from_ctx(ctx, v[None, :], 20, cfg)[0]
    h = 1e-7
    for _ in range(5):
        ds = rng.normal(size=20)
        phi = feature_map_batch(np.stack([s + h * ds, s - h * ds]), cfg)
        lhs = (phi[0] - phi[1]) @ v / (2 * h)
        assert abs(lhs - jt_v @ ds) < 1e-5 * max(1.0, abs(lhs))


# --- losses and gradients ---

def test_regression_zero_theta():
    cfg = FeatureMapConfig(window=8, hop=4)
    model = SupervisedTargetModel(CONT, np.zeros(cfg.dim(16)))
    s = np.random.default_rng(3).normal(size=16)
    y = 2.5
    loss, grad_s, grad_theta = batch_loss_grads(model, s[None, :],
                                                np.array([y]), cfg)
    assert abs(loss[0] - 0.5 * y * y) < 1e-12
    assert np.allclose(grad_theta, -y * feature_map_batch(s[None, :], cfg)[0])
    assert np.allclose(grad_s, 0.0)


def test_regression_perfect_fit_has_zero_grads():
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(4)
    theta = rng.normal(size=cfg.dim(16))
    model = SupervisedTargetModel(CONT, theta)
    s = rng.normal(size=16)
    y = float(feature_map_batch(s[None, :], cfg)[0] @ theta)
    loss, grad_s, grad_theta = batch_loss_grads(model, s[None, :],
                                                np.array([y]), cfg)
    assert abs(loss[0]) < 1e-18
    assert np.max(np.abs(grad_s)) < 1e-9
    assert np.max(np.abs(grad_theta)) < 1e-9


def test_classification_loss_matches_direct_cross_entropy():
    cfg = FeatureMapConfig(window=8, hop=8)
    rng = np.random.default_rng(5)
    model = SupervisedTargetModel(CAT3, rng.normal(size=(3, cfg.dim(16))))
    batch = rng.normal(size=(6, 16))
    labels = np.array([0, 1, 2, 1, 0, 2], dtype=float)
    losses, _, _ = batch_loss_grads(model, batch, labels, cfg)
    phi = feature_map_batch(batch, cfg)
    logits = phi @ model.theta.T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    want = -np.log(probs[np.arange(6), labels.astype(int)])
    assert np.allclose(losses, want, atol=1e-12)


def test_classification_extreme_logits_stay_finite():
    cfg = FeatureMapConfig(window=8, hop=8)
    model = SupervisedTargetModel(CAT3, np.full((3, 5), 200.0))
    model.theta[1] = -200.0
    losses, grad_s, grad_theta = batch_loss_grads(
        model, 3.0 * np.ones((2, 8)), np.array([1.0, 0.0]), cfg)
    assert np.all(np.isfinite(losses))
    assert np.all(np.isfinite(grad_s)) and np.all(np.isfinite(grad_theta))


@pytest.mark.parametrize("schema,log_power", [
    (CONT, False), (CONT, True), (CAT3, False), (CAT3, True)])
def test_gradients_match_finite_differences(schema, log_power):
    cfg = FeatureMapConfig(window=8, hop=4, log_power=log_power)
    rng = np.random.default_rng(6)
    dim = cfg.dim(16)
    model = SupervisedTargetModel(
        schema, 0.3 * rng.normal(size=theta_shape(schema, dim)))
    s = rng.normal(size=16)
    y = np.array([1.2 if schema.kind == "continuous" else 2.0])
    _, grad_s, grad_theta = batch_loss_grads(model, s[None, :], y, cfg)

    h = 1e-6
    for _ in range(4):
        ds = rng.normal(size=16)
        lp, lm = batch_loss_grads(model, np.stack([s + h * ds, s - h * ds]),
                                  np.repeat(y, 2), cfg)[0]
        fd = (lp - lm) / (2 * h)
        assert abs(fd - grad_s[0] @ ds) < 1e-5 * max(1.0, abs(fd))

        dth = rng.normal(size=model.theta.shape)
        mp = SupervisedTargetModel(schema, model.theta + h * dth)
        mm = SupervisedTargetModel(schema, model.theta - h * dth)
        lp = batch_loss_grads(mp, s[None, :], y, cfg)[0][0]
        lm = batch_loss_grads(mm, s[None, :], y, cfg)[0][0]
        fd = (lp - lm) / (2 * h)
        assert abs(fd - np.sum(grad_theta * dth)) < 1e-5 * max(1.0, abs(fd))


def test_classification_rejects_out_of_range_label():
    cfg = FeatureMapConfig(window=8, hop=8)
    model = SupervisedTargetModel(CAT3, np.zeros((3, 5)))
    with pytest.raises(IndexError):
        batch_loss_grads(model, np.ones((1, 8)), np.array([3.0]), cfg)


def test_batch_grad_theta_is_mean_of_singles():
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(7)
    model = SupervisedTargetModel(CONT, rng.normal(size=cfg.dim(16)))
    batch = rng.normal(size=(4, 16))
    labels = rng.normal(size=4)
    _, _, g_full = batch_loss_grads(model, batch, labels, cfg)
    singles = [batch_loss_grads(model, batch[i:i + 1], labels[i:i + 1],
                                cfg)[2] for i in range(4)]
    assert np.allclose(g_full, np.mean(singles, axis=0), atol=1e-14)
    # two equal halves averaged with weights 1/2, 1/2
    _, _, g_a = batch_loss_grads(model, batch[:2], labels[:2], cfg)
    _, _, g_b = batch_loss_grads(model, batch[2:], labels[2:], cfg)
    assert np.allclose(g_full, 0.5 * (g_a + g_b), atol=1e-14)


def test_minibatch_grad_is_unbiased_exhaustively():
    # average over all (4 choose 2) trial subsets equals the full batch
    from itertools import combinations
    cfg = FeatureMapConfig(window=8, hop=8)
    rng = np.random.default_rng(8)
    model = SupervisedTargetModel(CONT, rng.normal(size=cfg.dim(8)))
    batch = rng.normal(size=(4, 8))
    labels = rng.normal(size=4)
    _, _, g_full = batch_loss_grads(model, batch, labels, cfg)
    subs = list(combinations(range(4), 2))
    avg = np.mean([batch_loss_grads(model, batch[list(s)], labels[list(s)],
                                    cfg)[2] for s in subs], axis=0)
    assert np.max(np.abs(avg - g_full)) < 1e-12


def test_predict_batch_consistency():
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(9)
    m_cont = SupervisedTargetModel(CONT, rng.normal(size=cfg.dim(16)))
    batch = rng.normal(size=(3, 16))
    preds = predict_batch(m_cont, batch, cfg)
    assert np.allclose(preds, feature_map_batch(batch, cfg) @ m_cont.theta)

    m_cat = SupervisedTargetModel(CAT3, rng.normal(size=(3, cfg.dim(16))))
    cls = predict_batch(m_cat, batch, cfg)
    assert cls.shape == (3,) and set(cls) <= {0.0, 1.0, 2.0}


def test_theta_shape_and_init():
    assert theta_shape(CONT, 11) == (11,)
    assert theta_shape(CAT3, 11) == (3, 11)
    model = init_model(CAT3, 11, Xoshiro256pp(0), scale=0.01)
    assert model.theta.shape == (3, 11)
    assert np.abs(model.theta).max() < 0.2


# --- optimizers ---

def test_sgd_wd_hand_cases():
    opt = make_optimizer("sgd_wd", 0.1, np.zeros(1))
    assert optimizer_step(opt, np.array([1.0]), np.array([1.0]), 0.0)[0] == 0.9
    # zero gradient, zero decay: fixed point
    assert optimizer_step(opt, np.array([2.0]), np.zeros(1), 0.0)[0] == 2.0
    # decoupled decay factor (1 - eta*mu)
    got = optimizer_step(opt, np.array([2.0]), np.zeros(1), 0.5)[0]
    assert abs(got - 2.0 * (1 - 0.1 * 0.5)) < 1e-15


def test_adamw_first_step_is_unit_preconditioned():
    # from zero moments with g=1: m_hat = 1, v_hat = 1, step = eta/(1+eps)
    opt = make_optimizer("adamw", 0.1, np.zeros(3))
    theta = optimizer_step(opt, np.zeros(3), np.ones(3), 0.0)
    assert np.allclose(theta, -0.1, atol=1e-8)
    assert opt.t == 1


def test_adamw_matches_reference_loop():
    b1, b2, eps, eta = 0.9, 0.999, 1e-8, 0.01
    rng = np.random.default_rng(10)
    opt = make_optimizer("adamw", eta, np.zeros(4))
    theta = rng.normal(size=4)
    ref_theta = theta.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    mu = 0.3
    for t in range(1, 11):
        g = rng.normal(size=4)
        theta = optimizer_step(opt, theta, g, mu)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref_theta = (1 - eta * mu) * ref_theta \
            - eta * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.allclose(theta, ref_theta, atol=1e-15)


def test_make_optimizer_rejects_unknown_rule():
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", 0.1, np.zeros(1))


def test_retired_settings_are_not_parameters():
    with pytest.raises(TypeError):
        FeatureMapConfig(window=8, hop=4, log_power=True, log_eps=1e-6)
    with pytest.raises(TypeError):
        make_optimizer("adamw", 0.1, np.zeros(1), 0.9, 0.999, 1e-8)
    with pytest.raises(TypeError):
        make_optimizer("adamw", 0.1, np.zeros(1), beta1=0.9)


# --- smoothness constants ---

def test_source_lipschitz_bounds_observed_quotients():
    # squared regression without log: closed-form bound must dominate
    # gradient difference quotients inside the stated operating ball
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(11)
    t_len = 16
    model = SupervisedTargetModel(CONT, rng.normal(size=cfg.dim(t_len)))
    radius, y_bound = 6.0, 3.0
    lip = source_lipschitz(model, cfg, t_len, radius, y_bound)
    worst = 0.0
    for _ in range(60):
        s1 = rng.normal(size=t_len)
        s1 *= rng.uniform(0, radius) / max(np.linalg.norm(s1), 1e-12)
        s2 = s1 + rng.normal(size=t_len) * 0.1
        if np.linalg.norm(s2) > radius:
            continue
        y = rng.uniform(-y_bound, y_bound)
        _, g1, _ = batch_loss_grads(model, s1[None, :], np.array([y]), cfg)
        _, g2, _ = batch_loss_grads(model, s2[None, :], np.array([y]), cfg)
        q = np.linalg.norm(g1 - g2) / np.linalg.norm(s1 - s2)
        worst = max(worst, q)
    assert worst <= lip
    assert lip < 1e6 * worst        # sane order of magnitude, not a huge fudge


def test_source_lipschitz_closed_form_uses_exact_norm_of_m():
    # <theta, phi(s)> = s^T M s: the rows of M are the half-gradients at
    # the unit vectors, pushed through the forward and the adjoint
    cfg = FeatureMapConfig(window=8, hop=4)
    t_len, radius, y_bound = 16, 6.0, 3.0
    model = SupervisedTargetModel(
        CONT, np.random.default_rng(21).normal(size=cfg.dim(t_len)))
    _, ctx = _forward(np.eye(t_len), cfg)
    m = 0.5 * _adjoint_from_ctx(
        ctx, np.tile(model.theta, (t_len, 1)), t_len, cfg)
    norm_m = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    want = 6.0 * norm_m ** 2 * radius ** 2 + 2.0 * norm_m * y_bound
    got = source_lipschitz(model, cfg, t_len, radius, y_bound)
    assert got == pytest.approx(want, rel=1e-12)


def test_param_lipschitz_bounds_theta_gradient_quotients():
    cfg = FeatureMapConfig(window=8, hop=4)
    rng = np.random.default_rng(12)
    sources = rng.normal(size=(6, 16))
    labels = rng.normal(size=6)
    model = SupervisedTargetModel(CONT, rng.normal(size=cfg.dim(16)))
    lip = param_lipschitz(model, sources, cfg)
    for _ in range(20):
        th1 = rng.normal(size=model.theta.shape)
        th2 = th1 + rng.normal(size=model.theta.shape)
        m1 = SupervisedTargetModel(CONT, th1)
        m2 = SupervisedTargetModel(CONT, th2)
        _, _, g1 = batch_loss_grads(m1, sources, labels, cfg,
                                    need_grad_s=False)
        _, _, g2 = batch_loss_grads(m2, sources, labels, cfg,
                                    need_grad_s=False)
        q = np.linalg.norm(g1 - g2) / np.linalg.norm(th1 - th2)
        assert q <= lip + 1e-9
