"""Supervised heads: spectral features, losses, optimizers, smoothness.

Each supervised target m reads one unmixed source row s = W_m z and
predicts its label through a fixed feature map followed by a linear model:

* features: sliding windows of length ``window`` at hop ``hop``, per-window
  real-FFT power in bins k = 0..window//2, optionally log-compressed;
  flattened window-major into a vector of dimension n_windows * n_bins.
* continuous targets: squared-error loss on <theta, phi(s)>.
* categorical targets: softmax cross-entropy on logits Theta @ phi(s)
  (no bias term).

The DFT is a matrix product: the windows of a batch are copied into one
contiguous array and multiplied by a cached ``(window, 2 * n_bins)`` table
``[cos | -sin]`` (:func:`_trig`), giving the real and imaginary parts side
by side.  The fit, dataset generation, evaluation and the rate guards all
use this one transform.

Gradients with respect to the source signal are computed analytically by
pushing the per-bin power gradient back through the same table (one
matrix product against its transpose, then an overlap-add of the
windows), which is what couples label information into the unmixing
updates.
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

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")

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


def _trig(window: int) -> np.ndarray:
    """The read-only ``(window, 2 * n_bins)`` DFT table ``[cos | -sin]``.

    ``frames @ _trig(window)`` is ``[re | im]`` of the real FFT of each
    row of ``frames``.  Angles are reduced mod ``window`` before the
    cosine and sine are taken, and the sine columns of the bins whose
    imaginary part vanishes (k = 0 and, for even windows, Nyquist) are
    exact zeros.
    """
    table = _trig_cache.get(window)
    if table is None:
        n_bins = window // 2 + 1
        tk = np.arange(window)[:, None] * np.arange(n_bins)[None, :]
        ang = (2.0 * np.pi / window) * (tk % window)
        table = np.concatenate([np.cos(ang), -np.sin(ang)], axis=1)
        table[:, n_bins] = 0.0
        if window % 2 == 0:
            table[:, -1] = 0.0
        table.flags.writeable = False
        _trig_cache[window] = table
    return table


# Largest m*n*k of one gemm against the DFT table.  OpenBLAS runs a gemm
# this small on the calling thread; at the feature shapes (a few hundred
# windows of 64 samples) a second thread cost more than it saved and its
# packing buffer added ~2.5 MB to the peak RSS of a supervised fit
# (2-vCPU Xeon, OpenBLAS 2 threads).
_GEMM_MNK = 1 << 18


def _dft_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a contiguous ``a``, one gemm per block of rows with
    at most ``_GEMM_MNK`` multiply-adds."""
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, _GEMM_MNK // (a.shape[1] * b.shape[1]))
    for lo in range(0, a.shape[0], step):
        np.matmul(a[lo:lo + step], b, out=out[lo:lo + step])
    return out


# floor added to every power before log compression
_LOG_EPS = 1e-6


def _windowed(batch: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    # (B, T) -> (B, n_windows, window) view
    view = np.lib.stride_tricks.sliding_window_view(batch, cfg.window, axis=1)
    return view[:, ::cfg.hop, :]


def _forward(batch: np.ndarray, cfg: FeatureMapConfig):
    """Feature forward pass with the context needed for the adjoint.

    The windows of every row are copied into one ``(B * n_windows,
    window)`` array and multiplied by the cached :func:`_trig` table
    (see :func:`_dft_gemm`), giving ``ri = [re | im]``.  The context is
    ``(ri, shifted)``, with ``shifted = power + _LOG_EPS`` under log
    compression and ``None`` otherwise; :func:`_adjoint_from_ctx`
    consumes it.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    frames = np.ascontiguousarray(_windowed(batch, cfg))
    ri = _dft_gemm(frames.reshape(-1, cfg.window), _trig(cfg.window))
    del frames
    n_bins = cfg.n_bins
    re, im = ri[:, :n_bins], ri[:, n_bins:]
    power = re * re
    power += im * im
    b = batch.shape[0]
    if cfg.log_power:
        power += _LOG_EPS
        return np.log(power).reshape(b, -1), (ri, power)
    return power.reshape(b, -1), (ri, None)


def feature_map_batch(batch: np.ndarray, cfg: FeatureMapConfig) -> np.ndarray:
    """Feature vectors of a ``(B, T)`` signal batch; shape ``(B, dim)``."""
    phi, _ = _forward(batch, cfg)
    return phi


def _adjoint_from_ctx(ctx, grad_phi: np.ndarray, n_samples: int,
                      cfg: FeatureMapConfig) -> np.ndarray:
    """Map d(loss)/d(phi) back to d(loss)/d(signal) via overlap-add.

    Scales the context's ``ri`` in place, so each :func:`_forward`
    context serves one adjoint.
    """
    ri, shifted = ctx
    rows, n_bins = ri.shape[0], ri.shape[1] // 2
    b = grad_phi.shape[0]
    n_win = rows // b
    v = grad_phi.reshape(rows, n_bins)
    if cfg.log_power:
        v = v / shifted  # chain rule through log(power + _LOG_EPS)
    # ri = frames @ [cos | -sin], so d(power_k)/d(x_t)
    # = 2*re_k*cos(w*k*t) - 2*im_k*sin(w*k*t) = 2 * (ri_k . table[t])
    halves = ri.reshape(rows, 2, n_bins)
    halves *= v[:, None, :]
    g_win = _dft_gemm(ri, _trig(cfg.window).T).reshape(b, n_win, cfg.window)
    grad = np.zeros((b, n_samples))
    starts = np.arange(n_win) * cfg.hop
    for j, s0 in enumerate(starts):
        grad[:, s0:s0 + cfg.window] += g_win[:, j, :]
    grad *= 2.0
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

# AdamW moment decays and denominator floor (Kingma and Ba's defaults)
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """State of a per-target parameter update rule."""

    rule: str  # "sgd_wd" | "adamw"
    eta_p: float
    m: Optional[np.ndarray] = field(default=None, repr=False)
    v: Optional[np.ndarray] = field(default=None, repr=False)
    t: int = 0


def make_optimizer(rule: str, eta_p: float,
                   theta_like: np.ndarray) -> OptimizerState:
    if rule not in ("sgd_wd", "adamw"):
        raise ValueError(f"unknown optimizer rule {rule!r}")
    state = OptimizerState(rule, eta_p)
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
    state.m = _BETA1 * state.m + (1.0 - _BETA1) * grad
    state.v = _BETA2 * state.v + (1.0 - _BETA2) * grad * grad
    m_hat = state.m / (1.0 - _BETA1 ** state.t)
    v_hat = state.v / (1.0 - _BETA2 ** state.t)
    return decay * theta - state.eta_p * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# --- smoothness constants for the step-size guards ----------------------

# source_lipschitz samples this many gradient pairs from its own stream
_LIPSCHITZ_PAIRS = 48
_LIPSCHITZ_SEED = 0xB0B
# param_lipschitz scales the feature second moment's top eigenvalue by this
_PARAM_SAFETY = 4.0


def source_lipschitz(model: SupervisedTargetModel, cfg: FeatureMapConfig,
                     n_samples: int, radius: float,
                     label_bound: float) -> float:
    """Bound on the Lipschitz constant of s -> grad_s loss over a ball.

    For continuous targets without log compression the loss is a quartic
    whose Hessian norm admits the closed bound
    ``6*|M|^2*R^2 + 2*|M|*y_max`` with M the symmetric matrix satisfying
    <theta, phi(s)> = s^T M s; |M| is found to machine precision by one
    Lanczos run (:func:`mtsica.linalg.operator_norm`) using the analytic
    adjoint as the matvec.  Otherwise the constant is estimated from
    sampled gradient difference quotients inside the ball, times a safety
    factor of 2.  Either way the value is a heuristic *operating
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
                    cfg: FeatureMapConfig) -> float:
    """Smoothness of the mean loss in theta, at the given source batch.

    The per-sample Hessian in theta is phi phi^T (continuous) or bounded
    by (1/2) phi phi^T per class block (categorical), so the constant is
    the top eigenvalue of the empirical feature second moment, scaled by
    ``_PARAM_SAFETY`` to absorb drift of the sources during fitting.
    """
    phi = feature_map_batch(sources, cfg)
    n = phi.shape[0]
    lam = operator_norm(lambda v: phi.T @ (phi @ v) / n, phi.shape[1])
    if model.kind == KIND_CATEGORICAL:
        lam *= 0.5
    return _PARAM_SAFETY * lam
