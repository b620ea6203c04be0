"""Small shared numerical helpers (power iteration for spectral norms)."""

from __future__ import annotations

import numpy as np

from .prng import Xoshiro256pp

_POWER_STEPS = 50
_POWER_RTOL = 1e-8
_POWER_SEED = 0x5EED


def operator_norm(matvec, dim: int) -> float:
    """Largest singular value magnitude of a symmetric linear operator.

    Power iteration with a deterministic pseudo-random start vector; stops
    early once the Rayleigh estimate is stable to ``_POWER_RTOL``
    (relative).  For a symmetric operator this converges to the spectral
    radius, which equals the operator 2-norm.
    """
    v = Xoshiro256pp(_POWER_SEED).normals(dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise RuntimeError("degenerate start vector")
    v /= nv
    prev = 0.0
    for _ in range(_POWER_STEPS):
        w = matvec(v)
        norm = float(np.linalg.norm(w))
        if norm <= 1e-300:
            return 0.0
        if abs(norm - prev) <= _POWER_RTOL * norm:
            return norm
        prev = norm
        v = w / norm
    return prev


def spectral_norm(mat: np.ndarray) -> float:
    """Matrix 2-norm via power iteration on ``A^T A``."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    return float(np.sqrt(operator_norm(lambda v: a.T @ (a @ v), a.shape[1])))
