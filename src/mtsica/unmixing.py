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

__all__ = [
    "UnmixingState", "FactorizationError", "compute_A_c", "compute_B",
    "row_update", "cyclic_sweep", "per_iteration_objective",
]


class FactorizationError(RuntimeError):
    """Raised when the row-update system is numerically singular."""


@dataclass(frozen=True)
class UnmixingState:
    """Square unmixing matrix with cached log|det|.

    Construct via :meth:`from_matrix`, which validates invertibility and
    freezes the array.
    """

    w: np.ndarray
    logabsdet: float

    @classmethod
    def from_matrix(cls, w: np.ndarray) -> "UnmixingState":
        w = np.ascontiguousarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"unmixing matrix must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise FactorizationError("unmixing matrix has non-finite entries")
        sign, logdet = np.linalg.slogdet(w)
        if sign == 0.0 or not np.isfinite(logdet):
            raise FactorizationError("unmixing matrix is singular")
        w = w.copy() if w.flags.writeable is False else w
        w.flags.writeable = False
        return cls(w, float(logdet))

    @property
    def channels(self) -> int:
        return self.w.shape[0]


def _eta_inv(eta_u: float) -> float:
    if not eta_u > 0.0:
        raise ValueError("eta_u must be positive (may be inf)")
    return 0.0 if np.isinf(eta_u) else 1.0 / eta_u


def compute_A_c(u_c: np.ndarray, signals: np.ndarray, trials: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """Weighted observation second moment for one component.

    A_c = (1/(n*tau)) * sum_{i in trials} sum_{t in times}
          u_c[i, t] * z_i[:, t] z_i[:, t]^T

    Parameters
    ----------
    u_c : ndarray, shape (N, T)
        Auxiliary weights of component c for every trial/time.
    signals : ndarray, shape (N, C, T)
    trials, times : int arrays
        Index sets defining the (mini)batch; full ranges recover the
        batch quantity.
    """
    sub = signals[trials][:, :, times]                  # (n, C, tau)
    n, c, tau = sub.shape
    flat = sub.transpose(1, 0, 2).reshape(c, n * tau)   # (C, n*tau)
    weights = u_c[trials][:, times].reshape(n * tau)
    return (flat * weights) @ flat.T / (n * tau)


def make_a_provider(u_sub: np.ndarray, sub: np.ndarray):
    """Return ``c -> A_c`` for one gathered (mini)batch.

    ``sub`` is the batch ``z[trials][:, :, times]`` of shape (n, C, tau)
    and ``u_sub`` its auxiliary weights, same shape.  A_c matrices are
    recomputed per row and never stored as a set; this keeps peak memory
    at one C x C matrix plus the batch.
    """
    n, c, tau = sub.shape
    flat = sub.transpose(1, 0, 2).reshape(c, n * tau)

    def a_of(comp: int) -> np.ndarray:
        weights = u_sub[:, comp, :].reshape(n * tau)
        return (flat * weights) @ flat.T / (n * tau)

    return a_of


def compute_B(grad_s, sub: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Supervised coupling matrix; row m drives the update of W row m.

    Row m is the minibatch estimate of the gradient of the mean supervised
    loss of target m with respect to W_m:

        B[m] = (1/n) * sum_{i in trials} (T/tau) *
               sum_{t in times} d loss_m / d s_t * z_i[:, t]^T

    ``grad_s[m]``, shape (n, T), is that source gradient for the batch
    trials on the *full* time axis (the feature windows couple all
    samples); ``sub`` is the batch ``z[trials][:, :, times]``, shape
    (n, C, tau).  The T/tau factor makes the estimator unbiased in the
    time draw.  Rows beyond ``len(grad_s)`` are zero.  The supervision
    weight lam is *not* folded in here; it enters in the row objective.
    """
    n, c, tau = sub.shape
    b_mat = np.zeros((c, c))
    for m, grad in enumerate(grad_s):
        b_mat[m] = (grad.shape[1] / tau) * np.einsum(
            "nt,nct->c", grad[:, times], sub) / n
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
    w_new.flags.writeable = True
    w_new[comp] = r @ w
    return UnmixingState.from_matrix(w_new)


def cyclic_sweep(state: UnmixingState, a_of, b_mat: np.ndarray,
                 eta_u: float, lam: float) -> UnmixingState:
    """Update every row once, in index order c = 0..C-1.

    ``a_of`` maps a component index to its A_c matrix (callable), or is a
    sequence of precomputed matrices.  Later rows see the earlier rows'
    updates through the reparametrization; B stays fixed across the sweep,
    which is exact because the row-c objective touches B only through row
    c and row c of W is untouched until its own turn.
    """
    fetch = a_of if callable(a_of) else (lambda c: a_of[c])
    for comp in range(state.channels):
        state = row_update(state, fetch(comp), b_mat, comp, eta_u, lam)
    return state


def per_iteration_objective(w: np.ndarray, w_anchor: np.ndarray, a_set,
                            b_mat: np.ndarray, eta_u: float,
                            lam: float) -> float:
    """Value of the quadratic surrogate the sweep minimizes row-by-row.

    J(W) = -log|det W| + (1/2) sum_c W_c A_c W_c^T + lam * <B, W>
           + (1/(2*eta_u)) |W - W_anchor|_F^2

    With ``eta_u = inf`` the proximal term drops out.  Returns +inf for a
    singular W (outside the domain).
    """
    w = np.asarray(w, dtype=np.float64)
    sign, logdet = np.linalg.slogdet(w)
    if sign == 0.0 or not np.isfinite(logdet):
        return float("inf")
    fetch = a_set if callable(a_set) else (lambda c: a_set[c])
    quad = 0.5 * sum(float(w[c] @ fetch(c) @ w[c]) for c in range(w.shape[0]))
    value = -logdet + quad + lam * float(np.sum(b_mat * w))
    inv_eta = _eta_inv(eta_u)
    if inv_eta:
        diff = w - w_anchor
        value += 0.5 * inv_eta * float(np.sum(diff * diff))
    return value
