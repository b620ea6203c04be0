"""Unmixing matrix state and its block-coordinate row updates.

With auxiliary weights U and supervised heads held fixed, the objective as
a function of W is a quadratic form per row plus -log|det W| plus a
proximal tie to the previous iterate::

    J(W) = -log|det W| + (1/2) sum_c W_c A_c W_c^T + lam * <B, W>
           + (1/(2*eta_u)) * |W - W_anchor|_F^2

where A_c is the U-weighted second moment of the observations for
component c and row m of B carries the supervised loss gradients.  For a
single row with the others fixed this minimization has a closed form: the
optimal row is a linear combination r^T W of the current rows, where r
solves a quadratic-plus-log problem whose solution only needs one
symmetric positive-definite factorization.  Rows are updated cyclically;
each update multiplies det W by the leading coefficient r_c, so
invertibility is preserved by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import _own_readonly

__all__ = [
    "UnmixingState", "FactorizationError", "weighted_moments",
    "make_a_provider", "compute_B", "row_update", "cyclic_sweep",
]


class FactorizationError(RuntimeError):
    """Raised when the row-update system is numerically singular."""


@dataclass(frozen=True)
class UnmixingState:
    """Square unmixing matrix with cached log|det|.

    Construct via :meth:`from_matrix`, which validates invertibility and
    keeps a read-only array (a copy when the caller's array is writeable).
    """

    w: np.ndarray
    logabsdet: float

    @classmethod
    def from_matrix(cls, w: np.ndarray) -> "UnmixingState":
        w = _own_readonly(w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"unmixing matrix must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise FactorizationError("unmixing matrix has non-finite entries")
        sign, logdet = np.linalg.slogdet(w)
        if sign == 0.0 or not np.isfinite(logdet):
            raise FactorizationError("unmixing matrix is singular")
        return cls(w, float(logdet))

    @property
    def channels(self) -> int:
        return self.w.shape[0]


def _eta_inv(eta_u: float) -> float:
    if not eta_u > 0.0:
        raise ValueError("eta_u must be positive (may be inf)")
    return 0.0 if np.isinf(eta_u) else 1.0 / eta_u


# Batch columns per block of the A_c pass.  For C <= 10 one block's pair
# products (at most 55 x 4000 floats) stay in a 2 MB cache; a power of two
# is avoided because power-of-two row strides alias in cache (at C = 10 on
# a 2-vCPU Xeon with OpenBLAS, 2048 columns ran about 35% slower than 4000).
_A_BLOCK = 4000


def weighted_moments(u_batch: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Every U-weighted second moment of one gathered (mini)batch.

    Returns ``a`` of shape (C, C, C) with ``a[c] = A_c``::

        A_c = (1/(n*tau)) * sum_{i in trials} sum_{t in times}
              u_c[i, t] * z_i[:, t] z_i[:, t]^T

    ``batch`` is the component-major batch ``z[trials][:, :, times]``
    transposed to (C, n, tau) and ``u_batch`` its auxiliary weights in the
    same layout (any trailing shape works; only the C-row layout matters).
    One pass over the columns in blocks of ``_A_BLOCK``: each block forms
    the C(C+1)/2 products z_a z_b (a <= b) of the batch rows in one reused
    buffer and adds a single matrix product with the weight block, so all
    C matrices cost one read of the batch and no (n*tau) x C^2 array is
    ever built.  Each A_c is filled from its upper triangle and so is
    exactly symmetric.
    """
    c_dim = batch.shape[0]
    flat = batch.reshape(c_dim, -1)
    weights = u_batch.reshape(c_dim, -1)
    cols = flat.shape[1]
    upper, lower = np.triu_indices(c_dim)
    acc = np.zeros((len(upper), c_dim))   # acc[pair, c]
    pairs = np.empty((len(upper), min(_A_BLOCK, cols)))
    for start in range(0, cols, _A_BLOCK):
        block = flat[:, start:start + _A_BLOCK]
        prod = pairs[:, :block.shape[1]]
        row = 0
        for a in range(c_dim):
            np.multiply(block[a:], block[a], out=prod[row:row + c_dim - a])
            row += c_dim - a
        acc += prod @ weights[:, start:start + _A_BLOCK].T
    acc /= cols
    a_set = np.empty((c_dim, c_dim, c_dim))
    a_set[:, upper, lower] = acc.T
    a_set[:, lower, upper] = acc.T
    return a_set


def make_a_provider(u_batch: np.ndarray, batch: np.ndarray):
    """Return ``c -> A_c`` for one gathered (mini)batch.

    ``batch`` and ``u_batch`` are as in :func:`weighted_moments`.  The
    first call builds all C matrices in one blocked pass (C^3 floats next
    to the batch); later calls look them up.
    """
    a_set = None

    def a_of(comp: int) -> np.ndarray:
        nonlocal a_set
        if a_set is None:
            a_set = weighted_moments(u_batch, batch)
        return a_set[comp]

    return a_of


def compute_B(grad_s, batch: np.ndarray, times) -> np.ndarray:
    """Supervised coupling matrix; row m drives the update of W row m.

    Row m is the minibatch estimate of the gradient of the mean supervised
    loss of target m with respect to W_m:

        B[m] = (1/n) * sum_{i in trials} (T/tau) *
               sum_{t in times} d loss_m / d s_t * z_i[:, t]^T

    ``grad_s[m]``, shape (n, T), is that source gradient for the batch
    trials on the *full* time axis (the feature windows couple all
    samples); ``batch`` is the component-major batch
    ``z[trials][:, :, times]`` transposed to (C, n, tau), and ``times``
    indexes the time axis of ``grad_s[m]`` (an index array or a slice).
    Each row is one matrix-vector product of the batch with the gathered
    gradient.  The T/tau factor makes the estimator unbiased in the time
    draw.  Rows beyond ``len(grad_s)`` are zero.  The supervision weight
    lam is *not* folded in here; it enters in the row objective.
    """
    c, n, tau = batch.shape
    flat = batch.reshape(c, n * tau)
    b_mat = np.zeros((c, c))
    for m, grad in enumerate(grad_s):
        b_mat[m] = (grad.shape[1] / tau) * (
            flat @ grad[:, times].reshape(n * tau)) / n
    return b_mat


def row_update(state: UnmixingState, a_c: np.ndarray, b_mat: np.ndarray,
               comp: int, eta_u: float, lam: float) -> UnmixingState:
    """Exact minimization of the row objective for one component.

    Reparametrize the candidate row as r^T W (W the current matrix); the
    objective in r is ``(1/2) r^T K r - log|r_c| - r^T b`` with::

        K = W (A_c + I/eta_u) W^T
        b = W (W_c / eta_u - lam * B_c)

    K is factored once (Cholesky) and reused for both solves.  The
    stationary condition gives the positive branch

        r_c = sqrt((K^{-1})_cc + ((K^{-1} b)_c)^2 / 4) + (K^{-1} b)_c / 2
        r   = K^{-1} (e_c / r_c + b)

    and det W is multiplied by r_c > 0, so the update cannot leave the
    invertible set.

    Raises
    ------
    FactorizationError
        If K fails to factor (numerically singular surrogate).
    """
    w = state.w
    c_dim = w.shape[0]
    inv_eta = _eta_inv(eta_u)
    inner = a_c + inv_eta * np.eye(c_dim)
    k_mat = w @ inner @ w.T
    k_mat = 0.5 * (k_mat + k_mat.T)
    b_vec = w @ (inv_eta * w[comp] - lam * b_mat[comp])
    try:
        factor = scipy.linalg.cho_factor(k_mat, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as e:
        raise FactorizationError(f"row {comp}: K not positive definite: {e}") from e
    rhs = np.zeros((c_dim, 2))
    rhs[comp, 0] = 1.0
    rhs[:, 1] = b_vec
    sol = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    kinv_ec, kinv_b = sol[:, 0], sol[:, 1]
    kcc = kinv_ec[comp]
    if not kcc > 0.0 or not np.isfinite(kcc):
        raise FactorizationError(f"row {comp}: K^-1 diagonal not positive")
    half_b = 0.5 * kinv_b[comp]
    r_c = np.sqrt(kcc + half_b * half_b) + half_b
    if not r_c > 0.0 or not np.isfinite(r_c):
        raise FactorizationError(f"row {comp}: degenerate leading coefficient")
    r = kinv_ec / r_c + kinv_b
    w_new = w.copy()
    w_new[comp] = r @ w
    return UnmixingState.from_matrix(w_new)


def cyclic_sweep(state: UnmixingState, a_of, b_mat: np.ndarray,
                 eta_u: float, lam: float) -> UnmixingState:
    """Update every row once, in index order c = 0..C-1.

    ``a_of`` maps a component index to its A_c matrix.  Later rows see the
    earlier rows' updates through the reparametrization; B stays fixed
    across the sweep, which is exact because the row-c objective touches B
    only through row c and row c of W is untouched until its own turn.
    """
    for comp in range(state.channels):
        state = row_update(state, a_of(comp), b_mat, comp, eta_u, lam)
    return state
