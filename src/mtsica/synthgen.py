"""Synthetic multi-trial datasets with known mixing ground truth.

Two recipes mirror the evaluation protocols the solver is designed for:

* ``multi_trial`` — unsupervised: N trials of C iid Laplace(1) sources
  mixed by one shared Gaussian random matrix; no targets.
* ``supervision`` — adds M continuous targets: labels are noiseless
  linear reads ``y_im = <theta*_m, phi(s_im)>`` of the m-th source's
  spectral features, and the mixing is built on the Hilbert-matrix
  eigenbasis with a controlled condition number e^kappa.

Trials are generated from independent per-trial random streams derived
from the root seed, so the content of trial i does not depend on how many
trials are requested, and generation is reproducible and parallel-safe.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .data import Dataset, TargetSchema
from .prng import Xoshiro256pp, Xoshiro256ppStreams, derive_stream_seed
from .supervision import FeatureMapConfig, feature_map_batch

# sub-seed tags: every consumer of the root seed derives its own stream
TAG_SOURCES = 0x01
TAG_MIXING = 0x02
TAG_TARGETS = 0x03

# gen_gaussian_mixing redraws a matrix above this condition number
_MIXING_COND_MAX = 1e8
_MIXING_TRIES = 100

RECIPES = {
    "multi_trial": dict(n_trials=80, channels=10, samples=1000, n_targets=0,
                        mixing="gaussian", kappa=None),
    "supervision": dict(n_trials=6000, channels=10, samples=1000, n_targets=3,
                        mixing="hilbert", kappa=5.0),
}


def gen_laplace_sources(n_trials: int, channels: int, samples: int,
                        seed: int) -> np.ndarray:
    """iid Laplace(0, 1) source tensor of shape (N, C, T).

    Trial i is filled row-major from its own stream
    ``derive_stream_seed(seed, i)``.
    """
    streams = Xoshiro256ppStreams.per_index(seed, n_trials)
    block = streams.laplace_block(channels * samples)
    return block.reshape(n_trials, channels, samples)


def gen_gaussian_mixing(channels: int, seed: int) -> np.ndarray:
    """Square standard-normal mixing matrix, redrawn if ill-conditioned."""
    rng = Xoshiro256pp(seed)
    for _ in range(_MIXING_TRIES):
        a = rng.normals((channels, channels))
        if np.linalg.cond(a) <= _MIXING_COND_MAX:
            return a
    raise RuntimeError("could not draw a well-conditioned mixing matrix")


def gen_hilbert_mixing(channels: int, kappa: float, seed: int) -> np.ndarray:
    """Symmetric positive-definite mixing with condition number e^kappa.

    Eigenvectors come from the Hilbert matrix of the same size; the
    spectrum is geometrically spaced from 1 to e^kappa and assigned to the
    eigenvectors in a seed-dependent random order.  ``kappa -> 0`` gives
    the identity (the eigenbasis is orthonormal).
    """
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    h = scipy.linalg.hilbert(channels)
    _, evecs = np.linalg.eigh(h)
    sigma = np.exp(np.linspace(0.0, kappa, channels))
    rng = Xoshiro256pp(seed)
    order = list(range(channels))  # Fisher-Yates shuffle of the spectrum
    for j in range(channels):
        swap = j + rng.below(channels - j)
        order[j], order[swap] = order[swap], order[j]
    return (evecs * sigma[order]) @ evecs.T


def gen_regression_targets(sources: np.ndarray, n_targets: int,
                           fm_cfg: FeatureMapConfig, seed: int):
    """Noiseless linear spectral-feature labels for the first M sources.

    Target m reads source component m: ``y_im = <theta*_m, phi(s_im)>``
    with theta* standard normal from the seed's stream.

    Returns ``(labels (N, M), theta_star (M, dim))``.
    """
    n_trials, channels, samples = sources.shape
    if n_targets > channels:
        raise ValueError("more targets than source components")
    dim = fm_cfg.dim(samples)
    rng = Xoshiro256pp(seed)
    theta_star = rng.normals((n_targets, dim))
    labels = np.empty((n_trials, n_targets))
    for m in range(n_targets):
        phi = feature_map_batch(sources[:, m, :], fm_cfg)
        labels[:, m] = phi @ theta_star[m]
    return labels, theta_star


def gen_dataset(recipe: str, seed: int, n_trials: int | None = None,
                channels: int | None = None, samples: int | None = None,
                n_targets: int | None = None, kappa: float | None = None,
                fm_cfg: FeatureMapConfig | None = None):
    """Generate a dataset ``(Dataset, mixing_matrix)`` from a recipe.

    Any dimension can be overridden; remaining values use the recipe
    defaults.  ``kappa`` applies to the recipes with Hilbert mixing only.
    Determinism: same arguments, same bytes.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}; choose from {sorted(RECIPES)}")
    spec = dict(RECIPES[recipe])
    if n_trials is not None:
        spec["n_trials"] = n_trials
    if channels is not None:
        spec["channels"] = channels
    if samples is not None:
        spec["samples"] = samples
    if n_targets is not None:
        spec["n_targets"] = n_targets
    if kappa is not None:
        if spec["mixing"] != "hilbert":
            raise ValueError(f"kappa sets the Hilbert mixing's condition; "
                             f"recipe {recipe!r} mixes with a Gaussian matrix")
        spec["kappa"] = kappa
    fm_cfg = fm_cfg or FeatureMapConfig()

    n, c, t, m = (spec["n_trials"], spec["channels"], spec["samples"],
                  spec["n_targets"])
    if min(n, c, t) < 1:
        raise ValueError("dimensions must be positive")
    if m > c:
        raise ValueError(f"n_targets {m} exceeds channels {c}")

    sources = gen_laplace_sources(n, c, t, derive_stream_seed(seed, TAG_SOURCES))
    mix_seed = derive_stream_seed(seed, TAG_MIXING)
    if spec["mixing"] == "gaussian":
        mixing = gen_gaussian_mixing(c, mix_seed)
    else:
        mixing = gen_hilbert_mixing(c, float(spec["kappa"]), mix_seed)
    signals = np.einsum("cd,ndt->nct", mixing, sources)

    if m:
        labels, _ = gen_regression_targets(
            sources, m, fm_cfg, derive_stream_seed(seed, TAG_TARGETS))
        targets = tuple(TargetSchema(f"y{j}", "continuous") for j in range(m))
    else:
        labels = np.zeros((n, 0))
        targets = ()
    del sources
    # nothing else holds ``signals``: read-only, Dataset keeps it uncopied
    signals.flags.writeable = False
    return Dataset(signals, labels, targets), mixing
