"""Supervised heads: spectral features, losses, optimizers, smoothness.

Each supervised target m reads one unmixed source row s = W_m z and
predicts its label through a fixed feature map followed by a linear model:

* features: sliding windows of length ``window`` at hop ``hop``, per-window
  real-FFT power in bins k = 0..window//2, optionally log-compressed;
  flattened window-major into a vector of dimension n_windows * n_bins.
* continuous targets: squared-error loss on <theta, phi(s)>.
* categorical targets: softmax cross-entropy on logits Theta @ phi(s)
  (no bias term).

Gradients with respect to the source signal are computed analytically by
pushing the per-bin power gradient back through the DFT (an overlap-add of
cosine/sine projections), which is what couples label information into the
unmixing updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import KIND_CATEGORICAL, KIND_CONTINUOUS, TargetSchema
from .linalg import operator_norm
from .prng import Xoshiro256pp


@dataclass(frozen=True)
class FeatureMapConfig:
    """Windowed power-spectrum feature map parameters."""

    window: int = 64
    hop: int = 32
    log_power: bool = False
    log_eps: float = 1e-6

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.log_eps <= 0.0:
            raise ValueError("log_eps must be positive")

    def n_windows(self, n_samples: int) -> int:
        if n_samples < self.window:
            raise ValueError(
                f"signal length {n_samples} shorter than window {self.window}")
        return (n_samples - self.window) // self.hop + 1

    @property
    def n_bins(self) -> int:
        return self.window // 2 + 1

    def dim(self, n_samples: int) -> int:
        return self.n_windows(n_samples) * self.n_bins


_trig_cache: dict = {}


def _trig(window: int):
    # cos/sin tables: rfft real part = COS.T @ x, imag part = -SIN.T @ x
    if window not in _trig_cache:
        t = np.arange(window)[:, None]
        k = np.arange(window // 2 + 1)[None, :]
        ang = 2.0 * np.pi * t * k / window
        _trig_cache[window] = (np.cos(ang), np.sin(ang))
    return _trig_cache[window]


def _windowed(batch: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    # (B, T) -> (B, n_windows, window) view
    view = np.lib.stride_tricks.sliding_window_view(batch, cfg.window, axis=1)
    return view[:, ::cfg.hop, :]


def _forward(batch: np.ndarray, cfg: FeatureMapConfig):
    """Feature forward pass with the context needed for the adjoint."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    spec = np.fft.rfft(_windowed(batch, cfg), axis=-1)
    re, im = spec.real, spec.imag
    power = re * re + im * im
    if cfg.log_power:
        shifted = power + cfg.log_eps
        phi = np.log(shifted)
        ctx = (re, im, shifted)
    else:
        phi = power
        ctx = (re, im, None)
    b = batch.shape[0]
    return phi.reshape(b, -1), ctx


def feature_map_batch(batch: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Feature vectors of a ``(B, T)`` signal batch; shape ``(B, dim)``."""
    phi, _ = _forward(batch, cfg)
    return phi


def _adjoint_from_ctx(ctx, grad_phi: np.ndarray, n_samples: int,
                      cfg: FeatureMapConfig) -> np.ndarray:
    """Map d(loss)/d(phi) back to d(loss)/d(signal) via overlap-add."""
    re, im, shifted = ctx
    b, n_win, n_bins = re.shape
    v = grad_phi.reshape(b, n_win, n_bins)
    if cfg.log_power:
        v = v / shifted  # chain rule through log(power + eps)
    cos, sin = _trig(cfg.window)
    # re = COS^T x and im = -SIN^T x, so
    # d(power_k)/d(x_t) = 2*re_k*cos(w*k*t) - 2*im_k*sin(w*k*t)
    g_win = 2.0 * ((v * re) @ cos.T - (v * im) @ sin.T)
    grad = np.zeros((b, n_samples))
    starts = np.arange(n_win) * cfg.hop
    for j, s0 in enumerate(starts):
        grad[:, s0:s0 + cfg.window] += g_win[:, j, :]
    return grad


# --- per-target linear models -------------------------------------------

@dataclass
class SupervisedTargetModel:
    """Linear predictive head for one target.

    ``theta`` has shape ``(dim,)`` for continuous targets and
    ``(n_classes, dim)`` for categorical ones.
    """

    schema: TargetSchema
    theta: np.ndarray

    @property
    def kind(self) -> str:
        return self.schema.kind


def theta_shape(schema: TargetSchema, dim: int) -> tuple:
    if schema.kind == KIND_CATEGORICAL:
        return (schema.n_classes, dim)
    return (dim,)


def init_model(schema: TargetSchema, dim: int, rng: Xoshiro256pp,
               scale: float = 0.01) -> SupervisedTargetModel:
    """Small random initialization of a target head."""
    return SupervisedTargetModel(
        schema, scale * rng.normals(theta_shape(schema, dim)))


def head_loss_grads(model: SupervisedTargetModel, phi: np.ndarray,
                    labels: np.ndarray, need_grad_phi: bool = True,
                    need_grad_theta: bool = True):
    """Head half of :func:`batch_loss_grads`, at features ``phi`` (B, dim).

    Returns the losses, the per-trial gradient in ``phi`` and the gradient
    of the mean loss in theta.  Keeping one :func:`_forward` result lets a
    caller step theta and then take the source gradient at the new theta.
    """
    b = phi.shape[0]
    if model.kind == KIND_CONTINUOUS:
        resid = phi @ model.theta - labels
        losses = 0.5 * resid * resid
        grad_theta = (phi.T @ resid) / b if need_grad_theta else None
        grad_phi = (resid[:, None] * model.theta[None, :]
                    if need_grad_phi else None)
    else:
        idx = labels.astype(np.int64)
        logits = phi @ model.theta.T
        peak = logits.max(axis=1, keepdims=True)
        lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
        losses = lse - logits[np.arange(b), idx]
        p = np.exp(logits - lse[:, None])
        p[np.arange(b), idx] -= 1.0
        grad_theta = (p.T @ phi) / b if need_grad_theta else None
        grad_phi = p @ model.theta if need_grad_phi else None
    return losses, grad_phi, grad_theta


def batch_loss_grads(model: SupervisedTargetModel, batch: np.ndarray,
                     labels: np.ndarray, cfg: FeatureMapConfig,
                     need_grad_s: bool = True, need_grad_theta: bool = True):
    """Losses and gradients for a batch of source signals.

    Parameters
    ----------
    batch : ndarray, shape (B, T)
        Candidate source signals, one per trial.
    labels : ndarray, shape (B,)
        Regression values, or integral class indices for categorical.

    Returns
    -------
    losses : ndarray, shape (B,)
    grad_s : ndarray, shape (B, T) or None
        Per-trial loss gradient in the signal.
    grad_theta : ndarray or None
        Gradient of the *mean* batch loss in theta.
    """
    batch = np.atleast_2d(batch)
    phi, ctx = _forward(batch, cfg)
    losses, grad_phi, grad_theta = head_loss_grads(
        model, phi, labels, need_grad_s, need_grad_theta)
    grad_s = (_adjoint_from_ctx(ctx, grad_phi, batch.shape[1], cfg)
              if need_grad_s else None)
    return losses, grad_s, grad_theta


def predict_batch(model: SupervisedTargetModel, batch: np.ndarray,
                  cfg: FeatureMapConfig) -> np.ndarray:
    """Predicted values (continuous) or class indices (categorical)."""
    phi = feature_map_batch(batch, cfg)
    if model.kind == KIND_CONTINUOUS:
        return phi @ model.theta
    return np.argmax(phi @ model.theta.T, axis=1).astype(np.float64)


# --- first-order parameter updates --------------------------------------

@dataclass
class OptimizerState:
    """State of a per-target parameter update rule."""

    rule: str  # "sgd_wd" | "adamw"
    eta_p: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: Optional[np.ndarray] = field(default=None, repr=False)
    v: Optional[np.ndarray] = field(default=None, repr=False)
    t: int = 0


def make_optimizer(rule: str, eta_p: float, theta_like: np.ndarray,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> OptimizerState:
    if rule not in ("sgd_wd", "adamw"):
        raise ValueError(f"unknown optimizer rule {rule!r}")
    state = OptimizerState(rule, eta_p, beta1, beta2, eps)
    if rule == "adamw":
        state.m = np.zeros_like(theta_like)
        state.v = np.zeros_like(theta_like)
    return state


def optimizer_step(state: OptimizerState, theta: np.ndarray,
                   grad: np.ndarray, weight_decay: float) -> np.ndarray:
    """One parameter step; weight decay is decoupled in both rules."""
    decay = 1.0 - state.eta_p * weight_decay
    if state.rule == "sgd_wd":
        return decay * theta - state.eta_p * grad
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return decay * theta - state.eta_p * m_hat / (np.sqrt(v_hat) + state.eps)


# --- smoothness constants for the step-size guards ----------------------

# source_lipschitz samples this many gradient pairs from its own stream
_LIPSCHITZ_PAIRS = 48
_LIPSCHITZ_SEED = 0xB0B


def source_lipschitz(model: SupervisedTargetModel, cfg: FeatureMapConfig,
                     n_samples: int, radius: float,
                     label_bound: float) -> float:
    """Bound on the Lipschitz constant of s -> grad_s loss over a ball.

    For continuous targets without log compression the loss is a quartic
    whose Hessian norm admits the closed bound
    ``6*|M|^2*R^2 + 2*|M|*y_max`` with M the symmetric matrix satisfying
    <theta, phi(s)> = s^T M s; |M| is found by power iteration using the
    analytic adjoint as the matvec.  Otherwise the constant is estimated
    from sampled gradient difference quotients inside the ball, times a
    safety factor of 2.  Either way the value is a heuristic *operating
    region* bound: the features are quadratic, so no global constant
    exists.
    """
    if model.kind == KIND_CONTINUOUS and not cfg.log_power:
        def matvec(v):
            _, ctx = _forward(v[None, :], cfg)
            return _adjoint_from_ctx(
                ctx, model.theta[None, :], n_samples, cfg)[0] * 0.5
        norm_m = operator_norm(matvec, n_samples)
        return 6.0 * norm_m ** 2 * radius ** 2 + 2.0 * norm_m * label_bound

    rng = Xoshiro256pp(_LIPSCHITZ_SEED)
    label = (label_bound if model.kind == KIND_CONTINUOUS else 0.0)
    best = 0.0
    for _ in range(_LIPSCHITZ_PAIRS):
        pair = []
        for _ in range(2):
            g = rng.normals(n_samples)
            g *= radius * rng.random() / max(np.linalg.norm(g), 1e-12)
            pair.append(g)
        _, g0, _ = batch_loss_grads(model, pair[0][None, :],
                                    np.array([label]), cfg,
                                    need_grad_theta=False)
        _, g1, _ = batch_loss_grads(model, pair[1][None, :],
                                    np.array([label]), cfg,
                                    need_grad_theta=False)
        gap = np.linalg.norm(pair[0] - pair[1])
        if gap > 1e-9:
            best = max(best, float(np.linalg.norm(g0[0] - g1[0]) / gap))
    return 2.0 * best


def param_lipschitz(model: SupervisedTargetModel, sources: np.ndarray,
                    cfg: FeatureMapConfig, safety: float = 4.0) -> float:
    """Smoothness of the mean loss in theta, at the given source batch.

    The per-sample Hessian in theta is phi phi^T (continuous) or bounded
    by (1/2) phi phi^T per class block (categorical), so the constant is
    the top eigenvalue of the empirical feature second moment, scaled by
    ``safety`` to absorb drift of the sources during fitting.
    """
    phi = feature_map_batch(sources, cfg)
    n = phi.shape[0]
    lam = operator_norm(lambda v: phi.T @ (phi @ v) / n, phi.shape[1])
    if model.kind == KIND_CATEGORICAL:
        lam *= 0.5
    return safety * lam
