"""Block-coordinate solver joining unmixing and supervised heads.

One outer iteration is one straight pass over one gathered minibatch:

1. draw the minibatch index sets (stochastic mode only) and gather the
   batch signals once;
2. step every supervised head theta with its first-order rule, using the
   gradient of the mean supervised loss at the current W;
3. refresh the auxiliary weights at the sampled (trial, time) entries
   (exact minimization or a damped proximal step);
4. form the supervision coupling matrix B at the current W and new theta;
5. sweep the rows of W cyclically, each row minimized in closed form.

Steps 2 and 4 share one feature forward per head: the features depend on
W and the trials only, not on theta.  Steps 2 and 3 touch disjoint
variables, neither reads the other's output, and the draws happen before
either, so swapping them would give bit-identical fits.

All randomness (initialization, minibatch draws) comes from one
deterministic stream seeded by ``config.seed``, consumed in a documented
fixed order: W init first, then each head's init in target order, then
per-iteration trial and time index draws (trials before times).  Two runs
with the same data, config, and seed are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import supervision
from .data import Dataset
from .likelihood import aux_exact, aux_proximal, get_density
from .linalg import spectral_norm
from .metrics import amari_distance
from .prng import Xoshiro256pp
from .supervision import (FeatureMapConfig, SupervisedTargetModel,
                          batch_loss_grads, head_loss_grads, init_model,
                          make_optimizer, optimizer_step, param_lipschitz,
                          source_lipschitz)
from .unmixing import (FactorizationError, UnmixingState, compute_B,
                       cyclic_sweep, make_a_provider)

_LOGDET_FLOOR_PER_CHANNEL = -50.0  # abort when log|det W| < floor * C


@dataclass(frozen=True)
class SolverConfig:
    """All solver knobs; mirrors the flat key=value config file.

    ``batch_trials``/``batch_times`` of ``None`` mean the full dataset;
    they only take effect in stochastic mode.  ``eta_u`` may be ``inf``
    (no proximal tie on W).  ``lipschitz_lm``/``lipschitz_ltheta``
    override the estimated smoothness constants in the rate guards.
    """

    iterations: int = 1000
    eta_u: float = 0.1
    eta_p: float = 1e-3
    eta_a: float = 1.0
    lam: float = 0.0
    mu: float = 0.0
    density: str = "laplace"
    aux_mode: str = "exact"
    optimizer: str = "sgd_wd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_trials: Optional[int] = None
    batch_times: Optional[int] = None
    seed: int = 0
    trace_every: int = 1
    window: int = 64
    hop: int = 32
    log_power: bool = False
    log_eps: float = 1e-6
    u_max: float = 1e8
    init_scale: float = 0.01
    lipschitz_lm: Optional[float] = None
    lipschitz_ltheta: Optional[float] = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.eta_u > 0.0:
            raise ValueError("eta_u must be positive (inf allowed)")
        for name in ("eta_p", "eta_a", "u_max", "log_eps"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("lam", "mu"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        get_density(self.density)
        if self.aux_mode not in ("exact", "proximal"):
            raise ValueError(f"unknown aux_mode {self.aux_mode!r}")
        if self.optimizer not in ("sgd_wd", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        for name in ("batch_trials", "batch_times"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 when set")

    @property
    def feature_config(self) -> FeatureMapConfig:
        return FeatureMapConfig(self.window, self.hop,
                                self.log_power, self.log_eps)

    def with_seed(self, seed: int) -> "SolverConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class RateGuards:
    """Step-size ceilings from the descent analysis.

    ``eta_u_max = 1 / (2 * lam * L_W)`` with
    ``L_W = avg_i |z_i|_2^2 * sqrt(sum_m L_m^2)``, and
    ``eta_p_max = 1 / (L_theta + mu)``.  Infinite when the corresponding
    coupling is absent (lam = 0 / no targets).
    """

    source_lipschitz: tuple
    param_lipschitz: float
    w_lipschitz: float
    avg_sq_signal_norm: float
    eta_u_max: float
    eta_p_max: float


def compute_rate_guards(dataset: Dataset, models, lam: float, mu: float,
                        fm_cfg: Optional[FeatureMapConfig] = None,
                        lm_override: Optional[float] = None,
                        ltheta_override: Optional[float] = None,
                        radius_factor: float = 4.0,
                        safety: float = 4.0) -> RateGuards:
    """Estimate smoothness constants and the step-size ceilings they imply.

    Signal spectral norms are computed by power iteration (tolerance 1e-8).
    Per-target constants are heuristic operating-region bounds (see
    :func:`mtsica.supervision.source_lipschitz`): the ball radius is
    ``radius_factor`` times the largest trial spectral norm, since a
    candidate source row W_m z_i is norm-bounded by |W_m| |z_i|_2.
    Overrides short-circuit the estimation.
    """
    fm_cfg = fm_cfg or FeatureMapConfig()
    z = dataset.signals
    norms = np.array([spectral_norm(z[i]) for i in range(z.shape[0])])
    avg_sq = float(np.mean(norms ** 2))
    radius = radius_factor * float(norms.max())

    lms = []
    for m, model in enumerate(models):
        if lm_override is not None:
            lms.append(float(lm_override))
            continue
        bound = float(np.max(np.abs(dataset.labels[:, m]))) if \
            model.kind == "continuous" else 0.0
        lms.append(source_lipschitz(model, fm_cfg, dataset.samples,
                                    radius, bound))
    w_lip = avg_sq * float(np.sqrt(np.sum(np.square(lms)))) if lms else 0.0
    eta_u_max = (1.0 / (2.0 * lam * w_lip)
                 if lam > 0.0 and w_lip > 0.0 else float("inf"))

    if ltheta_override is not None:
        l_theta = float(ltheta_override)
    elif models:
        # initial sources are close to the matching signal rows (W0 ~ I)
        l_theta = max(param_lipschitz(model, z[:, m, :], fm_cfg, safety)
                      for m, model in enumerate(models))
    else:
        l_theta = 0.0
    denom = l_theta + mu
    eta_p_max = 1.0 / denom if denom > 0.0 else float("inf")
    return RateGuards(tuple(lms), l_theta, w_lip, avg_sq, eta_u_max, eta_p_max)


@dataclass
class TraceRecord:
    """Objective snapshot at one outer iteration (full-dataset values)."""

    k: int
    loss_unsup: float
    loss_sup: float
    f_value: Optional[float]
    amari: Optional[float]
    wall_ms: float


@dataclass
class Trace:
    """Iteration trace with CSV serialization.

    The CSV carries optional ``#`` comment lines (callers embed the
    resolved configuration there), then the fixed header
    ``k,loss_unsup,loss_sup,F,amari,wall_ms``.  Unavailable values (F for
    densities without a closed-form penalty, Amari without ground truth,
    wall time when timing is suppressed) serialize as empty fields.
    """

    records: list = field(default_factory=list)
    f_available: bool = True

    HEADER = "k,loss_unsup,loss_sup,F,amari,wall_ms"

    def to_csv(self, path, header_lines=(), include_timing: bool = True) -> None:
        def num(v):
            return "" if v is None else f"{v:.17g}"

        lines = [f"# {h}" for h in header_lines]
        lines.append(self.HEADER)
        for r in self.records:
            wall = num(r.wall_ms) if include_timing else ""
            lines.append(",".join([
                str(r.k), num(r.loss_unsup), num(r.loss_sup),
                num(r.f_value), num(r.amari), wall]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def final(self) -> TraceRecord:
        return self.records[-1]


class SolverAbort(RuntimeError):
    """Numerical failure during fitting; carries the last good state."""

    def __init__(self, message: str, trace: Trace, w_state, models):
        super().__init__(message)
        self.trace = trace
        self.w_state = w_state
        self.models = models


class FitResult(NamedTuple):
    w_state: UnmixingState
    models: list
    trace: Trace


def fit_full_batch(dataset: Dataset, config: SolverConfig,
                   ground_truth: Optional[np.ndarray] = None,
                   _iter_hook=None) -> FitResult:
    """Deterministic full-batch fit (every trial and sample each step)."""
    return _fit(dataset, config, ground_truth, stochastic=False,
                iter_hook=_iter_hook)


def fit_stochastic(dataset: Dataset, config: SolverConfig,
                   ground_truth: Optional[np.ndarray] = None,
                   _iter_hook=None) -> FitResult:
    """Minibatch fit drawing ``batch_trials`` trials and ``batch_times``
    time points afresh each iteration (without replacement, sorted).

    Auxiliary weights are refreshed only at sampled entries; unsampled
    entries carry over from earlier iterations (all start from one exact
    pass at the initial W).  With full-size batches this reproduces
    :func:`fit_full_batch` exactly.
    """
    return _fit(dataset, config, ground_truth, stochastic=True,
                iter_hook=_iter_hook)


def _fit(dataset, config, ground_truth, stochastic,
         iter_hook=None) -> FitResult:
    t_start = time.perf_counter()
    z = dataset.signals
    n_trials, channels, samples = z.shape
    labels = dataset.labels
    n_targets = dataset.n_targets
    density = get_density(config.density)
    fm_cfg = config.feature_config
    if n_targets:
        feature_dim = fm_cfg.dim(samples)  # validates window <= T
    if ground_truth is not None:
        ground_truth = np.asarray(ground_truth, dtype=np.float64)
        if ground_truth.shape != (channels, channels):
            raise ValueError("ground-truth mixing shape mismatch")

    batch_n = config.batch_trials if (stochastic and config.batch_trials) \
        else n_trials
    batch_tau = config.batch_times if (stochastic and config.batch_times) \
        else samples
    if batch_n > n_trials or batch_tau > samples:
        raise ValueError("minibatch size exceeds dataset dimensions")

    rng = Xoshiro256pp(config.seed)
    state = _draw_invertible_init(rng, channels, config.init_scale)
    models = [init_model(schema, feature_dim, rng, config.init_scale,
                         config.mu) for schema in dataset.targets]
    optimizers = [make_optimizer(config.optimizer, config.eta_p, m.theta,
                                 config.beta1, config.beta2, config.eps)
                  for m in models]

    aux = np.asarray(aux_exact(
        np.einsum("cd,ndt->nct", state.w, z), density, config.u_max))
    trace = Trace(f_available=density.has_f)

    full_trials = np.arange(n_trials)
    full_times = np.arange(samples)
    all_channels = np.arange(channels)
    coupled = n_targets and config.lam > 0.0

    def record(k):
        trace.records.append(_snapshot(
            k, state, models, aux, z, labels, density, fm_cfg,
            config, ground_truth, t_start))

    record(0)
    if iter_hook is not None:
        iter_hook(0, state, models, aux)
    try:
        for k in range(1, config.iterations + 1):
            if stochastic:
                trials_k = rng.subset(n_trials, batch_n)
                times_k = rng.subset(samples, batch_tau)
            else:
                trials_k, times_k = full_trials, full_times
            sub = z[trials_k]
            sub_t = sub[:, :, times_k]
            labels_k = labels[trials_k]

            grad_s = []
            for m, (model, opt) in enumerate(zip(models, optimizers)):
                phi, ctx = supervision._forward(
                    np.einsum("c,nct->nt", state.w[m], sub), fm_cfg)
                _, _, grad = head_loss_grads(model, phi, labels_k[:, m],
                                             need_grad_phi=False)
                model.theta = optimizer_step(opt, model.theta, grad,
                                             config.mu)
                if coupled:
                    _, grad_phi, _ = head_loss_grads(
                        model, phi, labels_k[:, m], need_grad_theta=False)
                    grad_s.append(supervision._adjoint_from_ctx(
                        ctx, grad_phi, samples, fm_cfg))
            # each batch copy is released after its last read; in a full
            # batch fit every one of them is the size of the dataset
            del sub

            ix = np.ix_(trials_k, all_channels, times_k)
            x_sub = np.einsum("cd,ndt->nct", state.w, sub_t)
            if config.aux_mode == "exact":
                aux_k = aux_exact(x_sub, density, config.u_max)
            else:
                aux_k = aux_proximal(x_sub, aux[ix], config.eta_a,
                                     density, config.u_max)
            aux[ix] = aux_k
            del x_sub

            b_mat = compute_B(grad_s, sub_t, times_k)
            a_of = make_a_provider(aux_k, sub_t)
            state = cyclic_sweep(state, a_of, b_mat, config.eta_u, config.lam)
            del sub_t, aux_k, a_of
            if state.logabsdet < _LOGDET_FLOOR_PER_CHANNEL * channels:
                raise FactorizationError(
                    f"log|det W| collapsed to {state.logabsdet:.3g} "
                    f"at iteration {k}")
            if iter_hook is not None:  # test instrumentation
                iter_hook(k, state, models, aux)
            if k % config.trace_every == 0 or k == config.iterations:
                record(k)
    except FactorizationError as e:
        raise SolverAbort(f"numerical abort: {e}", trace, state, models) from e
    return FitResult(state, models, trace)


def _draw_invertible_init(rng, channels, scale):
    for _ in range(100):
        w0 = np.eye(channels) + scale * rng.normals((channels, channels))
        try:
            return UnmixingState.from_matrix(w0)
        except FactorizationError:
            continue
    raise FactorizationError("could not draw an invertible initialization")


def _snapshot(k, state, models, aux, z, labels, density, fm_cfg, config,
              ground_truth, t_start) -> TraceRecord:
    n, _, t = z.shape
    x = np.einsum("cd,ndt->nct", state.w, z)
    loss_unsup = float(-state.logabsdet + density.g(x).sum() / (n * t))
    loss_sup = 0.0
    for m, model in enumerate(models):
        losses, _, _ = batch_loss_grads(model, x[:, m, :], labels[:, m],
                                        fm_cfg, need_grad_s=False,
                                        need_grad_theta=False)
        loss_sup += float(losses.sum() / n)
    if density.has_f:
        bound = 0.5 * aux * x * x + density.f(aux)
        f_value = float(-state.logabsdet + bound.sum() / (n * t)
                        + config.lam * loss_sup
                        + 0.5 * config.mu * sum(
                            float(np.sum(m.theta ** 2)) for m in models))
    else:
        f_value = None
    amari = (float(amari_distance(state.w, ground_truth))
             if ground_truth is not None else None)
    wall_ms = (time.perf_counter() - t_start) * 1000.0
    return TraceRecord(k, loss_unsup, loss_sup, f_value, amari, wall_ms)
