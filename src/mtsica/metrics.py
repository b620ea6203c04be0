"""Separation metrics, whitening, and the FOBI baseline.

The Amari distance scores how close the product of an estimated unmixing
matrix and the true mixing is to a scaled permutation — the natural
equivalence class of ICA solutions.  FOBI (fourth-order blind
identification) is the classical single-shot baseline: whiten, then
eigendecompose the norm-weighted fourth-moment matrix.  FOBI requires
distinct source kurtoses; with ties the eigenbasis is arbitrary, which is
reported through a degeneracy flag rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linalg import serial_matmul
from .supervision import FeatureMapConfig, predict_batch

# whiten's floor on the covariance eigenvalues, relative to the largest
_WHITEN_RTOL = 1e-10


def amari_distance(w: np.ndarray, mixing: np.ndarray) -> float:
    """Permutation/scale-invariant misalignment of ``w @ mixing``.

    With R = |W A| entrywise::

        d = sum_j (sum_c R_jc / max_c R_jc - 1)
          + sum_j (sum_c R_cj / max_c R_cj - 1)

    Zero exactly when W A is a scaled permutation; grows with mixing
    leakage.  Both inputs must be square and nonsingular.
    """
    w = np.asarray(w, dtype=np.float64)
    mixing = np.asarray(mixing, dtype=np.float64)
    if w.shape != mixing.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("amari_distance needs two square matrices of equal size")
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        r = np.abs(w @ mixing)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite entries in W @ A")
    row_max = r.max(axis=1)
    col_max = r.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise ValueError("W @ A has a zero row or column (singular input)")
    return float((r.sum(axis=1) / row_max - 1.0).sum()
                 + (r.sum(axis=0) / col_max - 1.0).sum())


def check_mixing(mixing: np.ndarray, channels: int) -> None:
    """Raise ``ValueError`` unless ``mixing`` is a finite, nonsingular
    ``(channels, channels)`` ground truth, as :func:`amari_distance` needs."""
    if np.shape(mixing) != (channels, channels):
        raise ValueError("ground-truth mixing shape mismatch")
    if not np.all(np.isfinite(mixing)):
        raise ValueError("ground-truth mixing has non-finite entries")
    rank = np.linalg.matrix_rank(mixing)
    if rank < channels:
        raise ValueError(f"ground-truth mixing is singular (rank {rank} "
                         f"of {channels})")


def whiten(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (zero-phase) whitening of a ``(C, S)`` signal matrix.

    Uses the inverse principal square root of the sample covariance
    (maximum-likelihood normalization, 1/S), so the whitener of an
    already-white signal is the identity rather than an arbitrary
    rotation.  Returns ``(V @ x, V)``.

    Raises
    ------
    ValueError
        If the covariance is numerically rank-deficient.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("whiten expects a (channels, samples) matrix")
    centered = x - x.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / x.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    if evals[-1] <= 0.0 or evals[0] <= _WHITEN_RTOL * evals[-1]:
        raise ValueError("covariance is rank-deficient; cannot whiten")
    v = (evecs / np.sqrt(evals)) @ evecs.T
    return v @ x, v


@dataclass(frozen=True)
class FobiResult:
    """FOBI output: unmixing matrix and degeneracy flag."""

    w: np.ndarray
    degenerate: bool


def fobi(x: np.ndarray) -> FobiResult:
    """Fourth-order blind identification of a ``(C, S)`` mixture.

    Whitens the (centered) data, forms the weighted fourth-moment matrix
    ``Q = (1/S) sum_s |y_s|^2 y_s y_s^T`` of the whitened samples y, and
    returns ``W = E^T V`` with E the descending eigenbasis of Q.

    Identifiability needs the source kurtoses to be pairwise distinct.
    The ``degenerate`` flag reports adjacent eigenvalues of Q closer
    (relative to the mean eigenvalue) than ``max(1e-8, 8/sqrt(S))``; that
    tolerance accounts for the sampling noise of fourth moments, so
    population ties (e.g. two components with identical kurtosis) are
    flagged at realistic sample sizes.
    """
    x = np.asarray(x, dtype=np.float64)
    n_samples = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    white, v = whiten(centered)
    q = (white * np.sum(white * white, axis=0)) @ white.T / n_samples
    evals, evecs = np.linalg.eigh(q)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    scale = float(np.mean(np.abs(evals))) or 1.0
    gaps = np.abs(np.diff(evals)) / scale
    tol = max(1e-8, 8.0 / np.sqrt(n_samples))
    return FobiResult(evecs.T @ v, bool(np.any(gaps < tol)))


def success_rate(values, threshold: float) -> float:
    """Fraction of values strictly below a threshold."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("success_rate of an empty collection is undefined")
    return float(np.mean(values < threshold))


@dataclass(frozen=True)
class TargetMetric:
    """Holdout score of one supervised target."""

    name: str
    kind: str
    metric: str  # "rmse" | "accuracy"
    value: float


def evaluate_predictions(w: np.ndarray, models, dataset: Dataset,
                         fm_cfg: FeatureMapConfig,
                         trial_indices=None) -> list[TargetMetric]:
    """Score fitted heads on (a subset of) a dataset.

    For each target m, predictions are made from the unmixed source row
    ``W_m z_i``; continuous targets report RMSE, categorical targets
    report accuracy.
    """
    if trial_indices is None:
        trial_indices = np.arange(dataset.n_trials)
    trial_indices = np.asarray(trial_indices, dtype=np.int64)
    z = dataset.signals[trial_indices]
    # the fit's formulation: every head's sources from one product on the
    # calling thread, (n, M, T)
    sources = serial_matmul(np.asarray(w)[:len(models)], z)
    out = []
    for m, model in enumerate(models):
        pred = predict_batch(model, sources[:, m], fm_cfg)
        truth = dataset.labels[trial_indices, m]
        if model.kind == "continuous":
            value = float(np.sqrt(np.mean((pred - truth) ** 2)))
            metric = "rmse"
        else:
            value = float(np.mean(pred == truth))
            metric = "accuracy"
        out.append(TargetMetric(model.schema.name, model.kind, metric, value))
    return out
