"""Block-coordinate solver joining unmixing and supervised heads.

One outer iteration is one straight pass over one gathered minibatch:

1. draw the minibatch index sets and gather the batch trials once,
   ``sub = z[trials]``; the batch signals are ``np.take(sub, times,
   axis=2)`` transposed to one C-contiguous (C, n, tau) array, and every
   head's sources come from one product ``W[:M] @ sub``.  A batch that
   covers every trial and sample (``None`` means all) makes a full batch
   fit, which draws nothing and makes the copy once, before iteration 1;
2. step every supervised head theta with its first-order rule, using the
   gradient of the mean supervised loss at the current W (a head whose
   minibatch loss is not finite aborts the fit before any theta moves);
3. refresh the auxiliary weights at the sampled (trial, time) entries
   (exact minimization at ``eta_a = inf``, else a damped proximal step);
4. form the supervision coupling matrix B at the current W and new theta;
5. sweep the rows of W cyclically, each row minimized in closed form.

Steps 2 and 4 share one feature forward per head: the features depend on
W and the trials only, not on theta.  Steps 3 to 5 work on ``batch`` as
one (C, n*tau) matrix: the sources are ``W @ batch``, the fresh aux block
has the same layout, B is one matrix-vector product per head and all C
matrices A_c come from one blocked pass.  Steps 2 and 3 touch disjoint
variables, neither reads the other's output, and the draws happen before
either, so swapping them would give bit-identical fits.

The aux store is component-major, (C, N, T).  A batch's aux block is the
columns ``cols = trials * T + times`` (every pair, in batch order) of its
(C, N*T) view, read and written with that one index.  A full batch fit
computes the sources ``W @ batch`` once per W: before iteration 1 and
right after each sweep, into one reused array.  The trace snapshot of
that W and the aux refresh of the next iteration both read that array,
and the exact refresh overwrites the whole store in place.

Nothing else the size of the dataset is allocated.  The trace snapshot
and the initial aux pass of a stochastic fit walk the trials in blocks of
``max(1, _SNAP_ENTRIES // T)``; a stochastic fit computes each block's
``W z`` afresh, a full batch fit reads it from the carried sources.  The
initial stochastic aux store is filled with ``W z`` block by block and
then turned into weights by one in-place :func:`aux_exact` call.  So a
stochastic fit holds the signals and the aux store, a full batch fit
those, the component-major batch and its sources.

All randomness (initialization, minibatch draws) comes from one
deterministic stream seeded by ``config.seed``, consumed in a documented
fixed order: W init first, then each head's init in target order, then
per-iteration trial and time index draws (trials before times).  Two runs
with the same data, config, and seed are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import supervision
from .data import Dataset
from .likelihood import (aux_exact, aux_proximal, get_density,
                         variational_value)
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
_GUARD_RADIUS_FACTOR = 4.0  # rate-guard ball radius / largest |z_i|_2
# entries per component of one block of trials in the snapshot and the
# initial stochastic aux pass: a block's scratch stays in cache
_SNAP_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SolverConfig:
    """All solver knobs; mirrors the flat key=value config file.

    ``batch_trials``/``batch_times`` of ``None`` mean the full dataset.
    ``eta_u``, ``eta_a`` and ``u_max`` may be ``inf`` (no proximal tie on
    W, the exact aux step, no clamp); a finite ``eta_a`` is the proximal
    aux step, which needs a closed-form f.  Construction rejects every
    value that is invalid on its own; :func:`check_inputs` rejects those
    that do not fit a dataset.
    """

    iterations: int = 1000
    eta_u: float = 0.1
    eta_p: float = 1e-3
    eta_a: float = np.inf
    lam: float = 0.0
    mu: float = 0.0
    density: str = "laplace"
    optimizer: str = "sgd_wd"
    batch_trials: Optional[int] = None
    batch_times: Optional[int] = None
    seed: int = 0
    trace_every: int = 1
    window: int = 64
    hop: int = 32
    log_power: bool = False
    u_max: float = 1e8
    init_scale: float = 0.01

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        for name in ("eta_u", "eta_a", "u_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive (inf allowed)")
        if not 0.0 < self.eta_p < np.inf:
            raise ValueError("eta_p must be finite and positive")
        for name in ("lam", "mu"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not np.isfinite(self.init_scale):
            raise ValueError("init_scale must be finite")
        density = get_density(self.density)
        if self.eta_a < np.inf and not density.has_f:
            raise ValueError(f"a finite eta_a (the proximal aux step) needs "
                             f"a closed-form f; density {self.density!r} "
                             f"has none")
        if self.optimizer not in ("sgd_wd", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        for name in ("batch_trials", "batch_times"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1 when set")
        self.feature_config  # built once here; checks window and hop

    @cached_property
    def feature_config(self) -> FeatureMapConfig:
        return FeatureMapConfig(self.window, self.hop, self.log_power)


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
                        fm_cfg: Optional[FeatureMapConfig] = None) -> RateGuards:
    """Estimate smoothness constants and the step-size ceilings they imply.

    Signal spectral norms are exact (LAPACK).  Per-target constants are
    heuristic operating-region bounds (see
    :func:`mtsica.supervision.source_lipschitz`): the ball radius is
    ``_GUARD_RADIUS_FACTOR`` times the largest trial spectral norm, since a
    candidate source row W_m z_i is norm-bounded by |W_m| |z_i|_2.
    """
    fm_cfg = fm_cfg or FeatureMapConfig()
    z = dataset.signals
    norms = np.array([spectral_norm(z[i]) for i in range(z.shape[0])])
    avg_sq = float(np.mean(norms ** 2))
    radius = _GUARD_RADIUS_FACTOR * float(norms.max())

    lms = []
    for m, model in enumerate(models):
        bound = float(np.max(np.abs(dataset.labels[:, m]))) if \
            model.kind == "continuous" else 0.0
        lms.append(source_lipschitz(model, fm_cfg, dataset.samples,
                                    radius, bound))
    w_lip = avg_sq * float(np.sqrt(np.sum(np.square(lms)))) if lms else 0.0
    eta_u_max = (1.0 / (2.0 * lam * w_lip)
                 if lam > 0.0 and w_lip > 0.0 else float("inf"))

    # initial sources are close to the matching signal rows (W0 ~ I)
    l_theta = max((param_lipschitz(model, z[:, m, :], fm_cfg)
                   for m, model in enumerate(models)), default=0.0)
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

    def __reduce__(self):  # the default passes only the message back
        return type(self), (self.args[0], self.trace, self.w_state,
                            self.models)


class FitResult(NamedTuple):
    w_state: UnmixingState
    models: list
    trace: Trace


def fit_full_batch(dataset: Dataset, config: SolverConfig,
                   ground_truth: Optional[np.ndarray] = None,
                   _iter_hook=None) -> FitResult:
    """Deterministic full-batch fit (every trial and sample each step):
    :func:`fit_stochastic` with ``batch_trials``/``batch_times`` cleared."""
    return fit_stochastic(
        dataset, replace(config, batch_trials=None, batch_times=None),
        ground_truth, _iter_hook)


def fit_stochastic(dataset: Dataset, config: SolverConfig,
                   ground_truth: Optional[np.ndarray] = None,
                   _iter_hook=None) -> FitResult:
    """Fit on ``batch_trials`` trials and ``batch_times`` time points.

    A batch smaller than the dataset is drawn afresh each iteration
    (without replacement, sorted); the auxiliary weights are refreshed
    only at sampled entries, and unsampled entries carry over from
    earlier iterations (all start from one exact pass at the initial W).
    A batch that covers the dataset is the full batch fit, which draws
    nothing.

    ``_iter_hook(k, state, models, aux)`` runs at k = 0 and after each
    iteration k.  Its ``aux`` is an (N, C, T) view of the live aux store,
    which later iterations overwrite: copy it to keep it.
    """
    return _fit(dataset, config, ground_truth, iter_hook=_iter_hook)


def check_inputs(dataset: Dataset, config: SolverConfig,
                 ground_truth: Optional[np.ndarray] = None) -> tuple:
    """Check that ``config`` and ``ground_truth`` fit ``dataset``.

    Returns the (trials, times) minibatch sizes of one iteration; raises
    ``ValueError`` when a window, a minibatch or the ground truth does
    not fit the dataset, or when ``u_max = inf`` meets a sample that is
    zero in every channel.  Fitting runs this before iteration 1.
    """
    n_trials, channels, samples = dataset.signals.shape
    if dataset.n_targets:
        config.feature_config.dim(samples)  # raises when window > T
    if config.u_max == np.inf and np.isinf(
            aux_exact(np.zeros(1), get_density(config.density), np.inf)[0]):
        # W z = 0 there for every W, so the exact weight is infinite
        zero = np.argwhere(~np.any(dataset.signals, axis=1))
        if zero.size:
            i, t = zero[0]
            raise ValueError(
                f"u_max = inf needs a nonzero channel at every sample, but "
                f"trial {i} is zero in every channel at time {t}")
    if ground_truth is not None and \
            np.shape(ground_truth) != (channels, channels):
        raise ValueError("ground-truth mixing shape mismatch")
    batch_n = config.batch_trials or n_trials
    batch_tau = config.batch_times or samples
    if batch_n > n_trials or batch_tau > samples:
        raise ValueError("minibatch size exceeds dataset dimensions")
    return batch_n, batch_tau


def _fit(dataset, config, ground_truth, iter_hook=None) -> FitResult:
    t_start = time.perf_counter()
    batch_n, batch_tau = check_inputs(dataset, config, ground_truth)
    z = dataset.signals
    n_trials, channels, samples = z.shape
    stochastic = (batch_n, batch_tau) != (n_trials, samples)
    labels = dataset.labels
    n_targets = dataset.n_targets
    density = get_density(config.density)
    fm_cfg = config.feature_config
    if n_targets:
        feature_dim = fm_cfg.dim(samples)
    if ground_truth is not None:
        ground_truth = np.asarray(ground_truth, dtype=np.float64)

    rng = Xoshiro256pp(config.seed)
    state = _draw_invertible_init(rng, channels, config.init_scale)
    models = [init_model(schema, feature_dim, rng, config.init_scale)
              for schema in dataset.targets]
    optimizers = [make_optimizer(config.optimizer, config.eta_p, m.theta)
                  for m in models]

    trace = Trace()

    # the aux store is component-major, (C, N, T); a batch's aux block is
    # the columns ``cols`` of its (C, N*T) view
    coupled = n_targets and config.lam > 0.0
    aux = np.empty((channels, n_trials, samples))
    aux_flat = aux.reshape(channels, -1)
    if stochastic:
        x_all = None  # W z goes into the aux store, one block at a time
        for lo, hi in _trial_blocks(n_trials, samples):
            aux[:, lo:hi] = np.matmul(state.w, z[lo:hi]).transpose(1, 0, 2)
    else:  # the batch is the whole dataset, every iteration
        trials_k = times_k = cols = slice(None)
        sub = z
        batch = np.ascontiguousarray(z.transpose(1, 0, 2))
        # W z, recomputed in place after each sweep; read by the snapshot
        # and by the next aux refresh
        xs = state.w @ batch.reshape(channels, -1)
        x_all = xs.reshape(batch.shape)
    # the initial exact pass, one call over the whole store
    aux_exact(aux if stochastic else x_all, density, config.u_max, out=aux)
    aux_view = aux.transpose(1, 0, 2)    # (N, C, T), for the hook

    def record(k):
        trace.records.append(_snapshot(
            k, state, models, z, x_all, aux, labels, density, fm_cfg,
            config, ground_truth, t_start))

    record(0)
    if iter_hook is not None:
        iter_hook(0, state, models, aux_view)
    try:
        for k in range(1, config.iterations + 1):
            if stochastic:
                trials_k = rng.subset(n_trials, batch_n)
                times_k = rng.subset(samples, batch_tau)
                cols = (trials_k[:, None] * samples + times_k).ravel()
                sub = z[trials_k]
                batch = np.ascontiguousarray(     # (C, n, tau)
                    np.take(sub, times_k, axis=2).transpose(1, 0, 2))
            labels_k = labels[trials_k]
            # the heads read every sample of the batch trials: (n, M, T)
            heads = np.matmul(state.w[:n_targets], sub) if models else None
            if stochastic:
                del sub

            grad_s = []
            thetas = [model.theta for model in models]
            for m, (model, opt) in enumerate(zip(models, optimizers)):
                phi, ctx = supervision._forward(heads[:, m], fm_cfg)
                losses, _, grad = head_loss_grads(
                    model, phi, labels_k[:, m], need_grad_phi=False)
                if not np.all(np.isfinite(losses)):
                    for head, theta in zip(models, thetas):
                        head.theta = theta      # the last good heads
                    raise SolverAbort(
                        f"numerical abort: head {m} diverged at iteration "
                        f"{k}", trace, state, models)
                model.theta = optimizer_step(opt, model.theta, grad,
                                             config.mu)
                if coupled:
                    _, grad_phi, _ = head_loss_grads(
                        model, phi, labels_k[:, m], need_grad_theta=False)
                    grad_s.append(supervision._adjoint_from_ctx(
                        ctx, grad_phi, samples, fm_cfg))
            del heads

            x = (state.w @ batch.reshape(channels, -1) if stochastic
                 else xs)
            if config.eta_a == np.inf:
                # a full batch refreshes the whole store in place
                aux_k = aux_exact(x, density, config.u_max,
                                  out=None if stochastic else aux_flat)
            else:
                aux_k = aux_proximal(x, aux_flat[:, cols], config.eta_a,
                                     density, config.u_max)
            del x
            if aux_k is not aux_flat:
                aux_flat[:, cols] = aux_k

            b_mat = compute_B(grad_s, batch, times_k)
            a_of = make_a_provider(aux_k, batch)
            state = cyclic_sweep(state, a_of, b_mat, config.eta_u, config.lam)
            del aux_k, a_of
            if state.logabsdet < _LOGDET_FLOOR_PER_CHANNEL * channels:
                raise FactorizationError(
                    f"log|det W| collapsed to {state.logabsdet:.3g} "
                    f"at iteration {k}")
            if not stochastic:
                np.matmul(state.w, batch.reshape(channels, -1), out=xs)
            if iter_hook is not None:  # test instrumentation
                iter_hook(k, state, models, aux_view)
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


def _trial_blocks(n_trials, samples):
    """(lo, hi) bounds of consecutive blocks of ``_SNAP_ENTRIES // T``
    trials (at least one; the last block may be shorter)."""
    step = max(1, _SNAP_ENTRIES // samples)
    return [(lo, min(lo + step, n_trials)) for lo in range(0, n_trials, step)]


def _snapshot(k, state, models, z, x_all, aux, labels, density, fm_cfg,
              config, ground_truth, t_start) -> TraceRecord:
    """Full-dataset objective values at the current W and theta.

    ``z`` is the (N, C, T) data, ``aux`` the (C, N, T) store and ``x_all``
    the (C, N, T) sources ``W z``, or ``None`` to compute them one block
    of trials at a time (see :func:`_trial_blocks`).  For each block the
    heads' per-trial losses go into one (N,) array per head, summed once
    at the end; then, one component at a time, g(x) and the bound fill
    scratch of one block's size and each sum is added to a running total,
    blocks in trial order and components in index order within a block.
    """
    n, channels, t = z.shape
    blocks = _trial_blocks(n, t)
    scratch = np.empty((3, blocks[0][1], t))  # g(x), bound, f(u) of a block
    head_losses = np.empty((len(models), n))
    g_sum = bound_sum = 0.0
    for lo, hi in blocks:
        x = (np.matmul(state.w, z[lo:hi]).transpose(1, 0, 2)
             if x_all is None else x_all[:, lo:hi])
        for m, model in enumerate(models):
            head_losses[m, lo:hi] = batch_loss_grads(
                model, x[m], labels[lo:hi, m], fm_cfg, need_grad_s=False,
                need_grad_theta=False)[0]
        g_x, bound, f_u = scratch[:, :hi - lo]
        for c in range(channels):
            g_sum += density.g(x[c], out=g_x).sum()
            if density.has_f:
                bound_sum += variational_value(
                    x[c], aux[c, lo:hi], density, out=bound,
                    scratch=f_u).sum()
        del x  # one block of sources alive at a time
    loss_sup = 0.0
    for losses in head_losses:
        loss_sup += float(losses.sum() / n)
    loss_unsup = float(-state.logabsdet + g_sum / (n * t))
    if density.has_f:
        f_value = float(-state.logabsdet + bound_sum / (n * t)
                        + config.lam * loss_sup
                        + 0.5 * config.mu * sum(
                            float(np.sum(m.theta ** 2)) for m in models))
    else:
        f_value = None
    amari = (float(amari_distance(state.w, ground_truth))
             if ground_truth is not None else None)
    wall_ms = (time.perf_counter() - t_start) * 1000.0
    return TraceRecord(k, loss_unsup, loss_sup, f_value, amari, wall_ms)
