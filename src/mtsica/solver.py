"""Block-coordinate solver joining unmixing and supervised heads.

One outer iteration is one straight pass over one gathered minibatch:

1. draw the minibatch index sets and gather the batch trials once,
   ``sub = z[trials]``; the batch signals are the trial-major (n, C, tau)
   array ``np.take(sub, times, axis=2)``, and every head's sources come
   from one product ``W[:M] @ sub``.  A batch that covers every trial and
   sample (``None`` means all) makes a full batch fit, which draws
   nothing and takes the dataset's signals as its batch, uncopied;
2. step every supervised head theta with its first-order rule, using the
   gradient of the mean supervised loss at the current W (a head whose
   minibatch loss is not finite aborts the fit before any theta moves,
   and so does one whose loss in a trace row is not finite);
3. make one blocked pass over the batch (:func:`make_a_provider`) that
   copies each block of columns into a reused buffer and computes its
   ``W z`` once, its auxiliary weights and its share of every A_c.  The
   aux step, chosen before iteration 1, gives the weights: the exact
   minimizer u = min(1/|W z|, u_max) at ``eta_a = inf``, else a damped
   proximal step from the stored weights;
4. form the supervision coupling matrix B at the current W and new theta,
   summing per-trial products of the batch and the heads' gradients;
5. sweep the rows of W cyclically, each row minimized in closed form.

Steps 2 and 4 share one feature forward per head: the features depend on
W and the trials only, not on theta.
Steps 2 and 3 touch disjoint variables, neither reads the other's
output, and the draws happen before either, so swapping them would give
bit-identical fits.

The exact step keeps no weights.  A full batch fit with it makes the
pass right after each sweep but the last, where it also sums |W z| and
the bound at those weights for the new W's trace row, and the A_c wait
for the next iteration.  The proximal step keeps a component-major
(C, N, T) store and writes each block's weights back to it: a batch's
weights are the columns ``cols = trials * T + times`` of its (C, N*T)
view.  The trace snapshot walks the trials in blocks of
``max(1, _SNAP_ENTRIES // T)``, each with its own ``W z``; row 0's walk
also fills the store with the exact weights of W0, so it is the only pass
over the dataset before iteration 1.  These products, the heads'
``W[:M] @ sub``, the A_c pass and the feature DFT are gemms on the
calling thread (:func:`serial_matmul`), so none wakes the BLAS thread pool
or takes a thread-dependent kernel.

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
from .data import Dataset, write_commented_text
from .likelihood import (DEFAULT_U_MAX, aux_exact, aux_proximal,
                         variational_value)
from .linalg import serial_matmul, spectral_norm
from .metrics import amari_distance, check_mixing
from .prng import Xoshiro256pp
from .supervision import (FeatureMapConfig, batch_loss_grads,
                          head_loss_grads, init_model, make_optimizer,
                          optimizer_step, param_lipschitz, source_lipschitz)
from .unmixing import (FactorizationError, UnmixingState, compute_B,
                       cyclic_sweep, make_a_provider)

_LOGDET_FLOOR_PER_CHANNEL = -50.0  # abort when log|det W| < floor * C
_GUARD_RADIUS_FACTOR = 4.0  # rate-guard ball radius / largest |z_i|_2
# entries per component of one block of trials in the trace snapshot: a
# component's temporaries stay in cache
_SNAP_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SolverConfig:
    """All solver knobs; mirrors the flat key=value config file.

    ``batch_trials``/``batch_times`` of ``None`` mean the full dataset.
    ``eta_u``, ``eta_a`` and ``u_max`` may be ``inf`` (no proximal tie on
    W, the exact aux step, no clamp); a finite ``eta_a`` is the proximal
    aux step.  Construction rejects every value that is invalid on its
    own; :func:`check_inputs` rejects those that do not fit a dataset.
    """

    iterations: int = 1000
    eta_u: float = 0.1
    eta_p: float = 1e-3
    eta_a: float = np.inf
    lam: float = 0.0
    mu: float = 0.0
    optimizer: str = "sgd_wd"
    batch_trials: Optional[int] = None
    batch_times: Optional[int] = None
    seed: int = 0
    trace_every: int = 1
    window: int = FeatureMapConfig.window
    hop: int = FeatureMapConfig.hop
    log_power: bool = FeatureMapConfig.log_power
    u_max: float = DEFAULT_U_MAX
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
    coupling is absent (lam = 0 / no targets).  Each L_m is a bound over
    the guard ball for a continuous head on raw powers and a sampled
    estimate for the other heads, so ``eta_u_max`` is a ceiling only as
    far as its L_m are bounds.
    """

    eta_u_max: float
    eta_p_max: float


def compute_rate_guards(dataset: Dataset, models, lam: float, mu: float,
                        fm_cfg: FeatureMapConfig) -> RateGuards:
    """Step-size ceilings of ``models`` on ``dataset``.

    The trial spectral norms |z_i|_2 come from one dense LAPACK call over
    the stack of trials, and L_theta by dense LAPACK too.  Each
    per-target L_m holds over a ball (see
    :func:`mtsica.supervision.source_lipschitz`): a bound for continuous
    heads on raw powers, a sampled estimate otherwise.  The ball radius is
    ``_GUARD_RADIUS_FACTOR`` times the largest trial spectral norm, since a
    candidate source row W_m z_i is norm-bounded by |W_m| |z_i|_2.
    """
    z = dataset.signals
    norms = spectral_norm(z)
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
    return RateGuards(eta_u_max, eta_p_max)


@dataclass
class TraceRecord:
    """Objective snapshot at one outer iteration (full-dataset values)."""

    k: int
    loss_unsup: float
    loss_sup: float
    f_value: float
    amari: Optional[float]
    wall_ms: float


@dataclass
class Trace:
    """Iteration trace with CSV serialization.

    The CSV carries optional ``#`` comment lines (callers embed the
    resolved configuration there), then the fixed header
    ``k,loss_unsup,loss_sup,F,amari,wall_ms``.  Unavailable values (Amari
    without ground truth, wall time when timing is suppressed) serialize
    as empty fields.
    """

    records: list = field(default_factory=list)

    HEADER = "k,loss_unsup,loss_sup,F,amari,wall_ms"

    def to_csv(self, path, header_lines=(), include_timing: bool = True) -> None:
        def num(v):
            return "" if v is None else f"{v:.17g}"

        rows = [",".join([str(r.k), num(r.loss_unsup), num(r.loss_sup),
                          num(r.f_value), num(r.amari),
                          num(r.wall_ms) if include_timing else ""])
                for r in self.records]
        write_commented_text(path, header_lines, [self.HEADER, *rows])

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


def check_inputs(dataset: Dataset, config: SolverConfig,
                 ground_truth: Optional[np.ndarray] = None) -> tuple:
    """Check that ``config`` and ``ground_truth`` fit ``dataset``.

    Returns the (trials, times) minibatch sizes of one iteration; raises
    ``ValueError`` when a window or a minibatch does not fit the dataset,
    when the ground truth fails :func:`check_mixing`, when ``u_max = inf``
    meets a sample that is zero in every channel, or when ``init_scale``
    gives no invertible W0 from ``seed``.  Fitting runs this before
    iteration 1.
    """
    n_trials, channels, samples = dataset.signals.shape
    if dataset.n_targets:
        config.feature_config.dim(samples)  # raises when window > T
    if config.u_max == np.inf:
        # W z = 0 there for every W, so the exact weight 1/|x| is infinite
        zero = np.argwhere(~np.any(dataset.signals, axis=1))
        if zero.size:
            i, t = zero[0]
            raise ValueError(
                f"u_max = inf needs a nonzero channel at every sample, but "
                f"trial {i} is zero in every channel at time {t}")
    if ground_truth is not None:
        check_mixing(ground_truth, channels)
    batch_n = config.batch_trials or n_trials
    batch_tau = config.batch_times or samples
    if batch_n > n_trials or batch_tau > samples:
        raise ValueError("minibatch size exceeds dataset dimensions")
    _draw_invertible_init(Xoshiro256pp(config.seed), channels,
                          config.init_scale)
    return batch_n, batch_tau


def fit_stochastic(dataset: Dataset, config: SolverConfig,
                   ground_truth: Optional[np.ndarray] = None,
                   _iter_hook=None) -> FitResult:
    """Fit on ``batch_trials`` trials and ``batch_times`` time points.

    A batch smaller than the dataset is drawn afresh each iteration
    (without replacement, sorted); the proximal step refreshes the stored
    weights only at sampled entries, and unsampled entries carry over from
    earlier iterations (all start at the exact weights of the initial W,
    set by the walk of trace row 0).
    A batch that covers the dataset is the full batch fit, which draws
    nothing.

    ``_iter_hook(k, state, models, aux)`` runs at k = 0 and after each
    iteration k.  Its ``aux`` is ``None`` with the exact step, which keeps
    no weights, and with the proximal step an (N, C, T) view of the live
    aux store, which later iterations overwrite: copy it to keep it.
    """
    t_start = time.perf_counter()
    batch_n, batch_tau = check_inputs(dataset, config, ground_truth)
    z = dataset.signals
    n_trials, channels, samples = z.shape
    stochastic = (batch_n, batch_tau) != (n_trials, samples)
    labels = dataset.labels
    n_targets = dataset.n_targets
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

    exact = config.eta_a == np.inf
    coupled = n_targets and config.lam > 0.0
    if not stochastic:  # the batch is the whole dataset, every iteration
        trials_k = times_k = slice(None)
        sub = batch = z
    aux = aux_view = a_of = sums = None
    if exact:
        def step(x, start, stop):   # adds to ``sums`` when it is set
            return aux_exact(x, config.u_max, out=x, sums=sums)
    else:
        # the proximal step's store is component-major, (C, N, T); a
        # batch's aux block is the columns ``cols`` of its (C, N*T) view.
        # Row 0's walk fills it with the exact weights of W0.
        aux = np.empty((channels, n_trials, samples))
        aux_flat = aux.reshape(channels, -1)
        aux_view = aux.transpose(1, 0, 2)    # (N, C, T), for the hook

        def step(x, start, stop):
            at = cols[start:stop] if stochastic else slice(start, stop)
            u = aux_proximal(x, aux_flat[:, at], config.eta_a, config.u_max)
            aux_flat[:, at] = u
            return u

    def diverged(m, k):
        """The abort for head m at iteration k: W and every head go back
        to where iteration k started."""
        for head, theta in zip(models, thetas):
            head.theta = theta
        return SolverAbort(f"numerical abort: head {m} diverged at "
                           f"iteration {k}", trace, start, models)

    def record(k):
        """Append the full-dataset objective values at the current W and
        theta.  ``sums``, when set, holds the sums of |W z| and of the
        bound; else they are added up here over blocks of ``per_block``
        trials in order, one component at a time, at the
        exact weights of W or at the stored ones, which row 0's walk sets
        to those of W0.  The heads' per-trial losses go into one (N,) array
        per head, summed once at the end; a head whose sum is not finite
        aborts the fit and the row is not appended.  A ``W @ ground_truth``
        that :func:`amari_distance` cannot score (it overflowed) raises
        :class:`FactorizationError`.
        """
        head_losses = np.empty((n_targets, n_trials))
        totals = np.zeros(2) if sums is None else sums
        per_block = max(1, _SNAP_ENTRIES // samples)
        for lo in (range(0, n_trials, per_block)
                   if models or sums is None else ()):
            hi = min(lo + per_block, n_trials)
            x = serial_matmul(state.w, z[lo:hi]).transpose(1, 0, 2)
            for c in range(channels if sums is None else 0):
                if exact:
                    aux_exact(x[c], config.u_max, sums=totals)
                    continue
                if k == 0:    # the store starts at the exact weights of W0
                    aux_exact(x[c], config.u_max, out=aux[c, lo:hi])
                totals += (np.abs(x[c]).sum(),
                           variational_value(x[c], aux[c, lo:hi]).sum())
            for m, model in enumerate(models):
                # a diverged head's losses overflow: checked below
                with np.errstate(over="ignore", invalid="ignore"):
                    head_losses[m, lo:hi] = batch_loss_grads(
                        model, x[m], labels[lo:hi, m], fm_cfg,
                        need_grad_s=False)[0]
            del x  # one block of sources alive at a time
        loss_sup = 0.0
        for m, losses in enumerate(head_losses):
            with np.errstate(over="ignore", invalid="ignore"):
                loss = float(losses.sum() / n_trials)
            if not np.isfinite(loss):
                raise diverged(m, k)
            loss_sup += loss
        scale = n_trials * samples
        f_value = float(-state.logabsdet + totals[1] / scale
                        + config.lam * loss_sup
                        + 0.5 * config.mu * sum(
                            float(np.sum(m.theta ** 2)) for m in models))
        amari = None
        if ground_truth is not None:
            try:
                amari = float(amari_distance(state.w, ground_truth))
            except ValueError as e:
                raise FactorizationError(f"{e} at iteration {k}") from e
        trace.records.append(TraceRecord(
            k, float(-state.logabsdet + totals[0] / scale), loss_sup,
            f_value, amari, (time.perf_counter() - t_start) * 1000.0))

    start, thetas = state, [model.theta for model in models]
    try:
        record(0)
        if _iter_hook is not None:
            _iter_hook(0, state, models, aux_view)
        for k in range(1, config.iterations + 1):
            start, thetas = state, [model.theta for model in models]
            if stochastic:
                trials_k = rng.subset(n_trials, batch_n)
                times_k = rng.subset(samples, batch_tau)
                if not exact:    # the proximal step's columns
                    cols = (trials_k[:, None] * samples + times_k).ravel()
                sub = z[trials_k]
                batch = np.take(sub, times_k, axis=2)     # (n, C, tau)
            labels_k = labels[trials_k]
            # the heads read every sample of the batch trials: (n, M, T)
            heads = serial_matmul(state.w[:n_targets], sub) if models else None
            if stochastic:
                del sub

            grad_s = []
            for m, (model, opt) in enumerate(zip(models, optimizers)):
                phi, ctx = supervision._forward(heads[:, m], fm_cfg)
                with np.errstate(over="ignore", invalid="ignore"):  # checked
                    losses, _, grad = head_loss_grads(
                        model, phi, labels_k[:, m], need_grad_phi=False)
                if not np.all(np.isfinite(losses)):
                    raise diverged(m, k)
                model.theta = optimizer_step(opt, model.theta, grad,
                                             config.mu)
                if coupled:
                    grad_phi = head_loss_grads(model, phi,
                                               labels_k[:, m])[1]
                    grad_s.append(supervision._adjoint_from_ctx(
                        ctx, grad_phi, samples, fm_cfg))
            del heads

            if a_of is None:   # not carried from the last iteration
                a_of = make_a_provider(state.w, batch, step)
            b_mat = compute_B(grad_s, batch, times_k)
            state = cyclic_sweep(state, a_of, b_mat, config.eta_u, config.lam)
            a_of = sums = None
            if state.logabsdet < _LOGDET_FLOOR_PER_CHANNEL * channels:
                raise FactorizationError(
                    f"log|det W| collapsed to {state.logabsdet:.3g} "
                    f"at iteration {k}")
            if exact and not stochastic and k < config.iterations:
                # one pass at the new W: the sums of its trace row and the
                # A_c of the next iteration
                sums = np.zeros(2) if k % config.trace_every == 0 else None
                a_of = make_a_provider(state.w, batch, step)
            if _iter_hook is not None:  # test instrumentation
                _iter_hook(k, state, models, aux_view)
            if k % config.trace_every == 0 or k == config.iterations:
                record(k)
    except FactorizationError as e:
        raise SolverAbort(f"numerical abort: {e}", trace, state, models) from e
    return FitResult(state, models, trace)


def _draw_invertible_init(rng, channels, scale):
    # an entry that overflows to inf makes a draw non-invertible
    for _ in range(100):
        with np.errstate(over="ignore"):
            w0 = np.eye(channels) + scale * rng.normals((channels, channels))
        try:
            return UnmixingState.from_matrix(w0)
        except FactorizationError:
            continue
    raise ValueError(f"init_scale = {scale:g} gives no invertible initial W "
                     f"in 100 draws from seed {rng.seed}")
