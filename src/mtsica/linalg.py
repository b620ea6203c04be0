"""Spectral norms by library routines: LAPACK for dense matrices, ARPACK's
Lanczos for symmetric operators given only as a matvec."""

from __future__ import annotations

import numpy as np

from .prng import Xoshiro256pp

_START_SEED = 0x5EED


def operator_norm(matvec, dim: int) -> float:
    """2-norm (largest |eigenvalue|) of a symmetric linear operator.

    One ARPACK Lanczos run (``eigsh``, ``which="LM"``) from a fixed
    pseudo-random start vector, so reruns give the same bits.  Returns 0.0
    when the operator maps that vector to zero, as the zero operator (a
    head with theta = 0) does; ARPACK rejects that case.  Raises
    ``ArpackNoConvergence`` rather than return a value short of the norm.
    """
    # imported here: at module level it adds ~50 ms to ``import mtsica``
    from scipy.sparse.linalg import LinearOperator, eigsh

    v0 = Xoshiro256pp(_START_SEED).normals(dim)
    if not np.any(matvec(v0)):
        return 0.0
    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    return float(abs(eigsh(op, k=1, which="LM", v0=v0,
                           return_eigenvectors=False)[0]))


def spectral_norm(mat: np.ndarray) -> float:
    """Matrix 2-norm (largest singular value)."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    return float(np.linalg.norm(a, 2))
