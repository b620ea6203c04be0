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
invertibility is preserved by construction, and log|det W| is carried
from row to row by adding log r_c: only :meth:`UnmixingState.from_matrix`
(the initial W and user input) computes a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.linalg

from .data import _own_readonly
from .linalg import _blocks, serial_matmul

# the LAPACK Cholesky routines row_update calls, looked up once
_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"),
                                               (np.empty(0),))


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


# Batch columns per block of the A_c pass.  For C <= 10 a block's products
# with one row (at most 10 x 4000 floats) are still in cache when their
# gemm reads them.  A power of two is avoided because power-of-two row
# strides alias in cache (at C = 10 on a 2-vCPU Xeon with OpenBLAS, 2048
# columns ran about 35% slower than 4000).  At C = 10 a block's W @ block
# and the products' gemms (up to 400k multiply-adds) are above OpenBLAS's
# one-thread limit of 2^18, so the pass runs them as serial_matmul.
# Threaded, every block woke the BLAS pool, which spun beside the pass's
# ufuncs: a full-batch fit took 1.6-2.0x its wall time in CPU and ran no
# faster than on one thread.
_A_BLOCK = 4000


def make_a_provider(w: np.ndarray, batch: np.ndarray, step):
    """Every A_c of one gathered (mini)batch, in one pass; returns
    ``c -> A_c``.

    ``batch`` is the component-major batch ``z[trials][:, :, times]``
    transposed to (C, n, tau) (any trailing shape works; only the C-row
    layout matters), and ``u_c[i, t]`` its auxiliary weights::

        A_c = (1/(n*tau)) * sum_{i in trials} sum_{t in times}
              u_c[i, t] * z_i[:, t] z_i[:, t]^T

    The pass walks the (C, n*tau) columns in blocks of ``_A_BLOCK``.  Each
    block gets x = W @ block once, in a reused buffer (a last block of one
    column takes it from the gemm of two that ``_blocks`` folds), and
    ``step(x, start, stop)`` turns it into the weights of columns
    ``start:stop`` (it may overwrite x and return it).  Then, for each
    row a, the block's products z_a z_b (b >= a) fill a second reused
    buffer and add one matrix product with the weights into every
    ``A_c[a, b]``, b >= a, so all C matrices cost one read of the batch
    and no (n*tau) x C^2 array is ever built.  Every product stays on the
    calling thread (:func:`serial_matmul`).  Each A_c is filled from its
    upper triangle, then mirrored, and so is exactly symmetric.
    """
    flat = batch.reshape(len(w), -1)
    c_dim, cols = flat.shape
    # acc[a, b, c] = n*tau * A_c[a, b] for b >= a: row a's products add
    # into one contiguous slice (a strided add into a_set[:, a, a:] took
    # ~2.5x as long, 5% of the pass at C = 10)
    acc = np.zeros((c_dim, c_dim, c_dim))
    pairs = np.empty((c_dim, min(_A_BLOCK, cols)))
    x_buf = np.empty_like(pairs)
    start = 0
    for lo, stop in _blocks(cols, _A_BLOCK):
        x = serial_matmul(w, flat[:, lo:stop],
                          out=x_buf[:, :stop - lo])[:, start - lo:]
        block = flat[:, start:stop]
        u_t = step(x, start, stop).T
        for a in range(c_dim):
            prod = pairs[:c_dim - a, :block.shape[1]]
            np.multiply(block[a:], block[a], out=prod)
            acc[a, a:] += serial_matmul(prod, u_t)
        start = stop
    a_set = np.ascontiguousarray(acc.transpose(2, 0, 1))   # a_set[c] = A_c
    a_set /= cols
    lower, upper = np.tril_indices(c_dim, -1)
    a_set[:, lower, upper] = a_set[:, upper, lower]
    return a_set.__getitem__


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

    K is factored once (LAPACK ``dpotrf``) and both solves share one
    ``dpotrs`` call.  The stationary condition gives the positive branch

        r_c = sqrt((K^{-1})_cc + ((K^{-1} b)_c)^2 / 4) + (K^{-1} b)_c / 2
        r   = K^{-1} (e_c / r_c + b)

    and det W is multiplied by r_c > 0, so the update cannot leave the
    invertible set.  The new state carries ``log|det W| + log r_c``
    instead of refactoring W; the returned W is read-only.

    Raises
    ------
    FactorizationError
        If K fails to factor (numerically singular surrogate), or r_c or
        the new row is not finite.
    """
    w = state.w
    c_dim = w.shape[0]
    if not eta_u > 0.0:
        raise ValueError("eta_u must be positive (may be inf)")
    inv_eta = 1.0 / eta_u   # 0.0 at inf
    inner = a_c + inv_eta * np.eye(c_dim)
    k_mat = w @ inner @ w.T
    k_mat = 0.5 * (k_mat + k_mat.T)   # exactly symmetric, so k_mat.T is
    # the same matrix in the Fortran order LAPACK takes without a copy
    b_vec = w @ (inv_eta * w[comp] - lam * b_mat[comp])
    factor, info = _potrf(k_mat.T, lower=True, overwrite_a=True, clean=False)
    if info != 0:
        raise FactorizationError(
            f"row {comp}: K not positive definite: {info}-th leading minor "
            f"of the array is not positive definite")
    rhs = np.zeros((c_dim, 2), order="F")
    rhs[comp, 0] = 1.0
    rhs[:, 1] = b_vec
    sol, info = _potrs(factor, rhs, lower=True, overwrite_b=True)
    kinv_ec, kinv_b = sol[:, 0], sol[:, 1]
    kcc = kinv_ec[comp]
    if info != 0 or not kcc > 0.0 or not np.isfinite(kcc):
        raise FactorizationError(f"row {comp}: K^-1 diagonal not positive")
    half_b = 0.5 * kinv_b[comp]
    r_c = np.sqrt(kcc + half_b * half_b) + half_b
    if not r_c > 0.0 or not np.isfinite(r_c):
        raise FactorizationError(f"row {comp}: degenerate leading coefficient")
    r = kinv_ec / r_c + kinv_b
    w_new = w.copy()
    w_new[comp] = r @ w
    if not np.all(np.isfinite(w_new[comp])):
        raise FactorizationError("unmixing matrix has non-finite entries")
    w_new.flags.writeable = False
    return UnmixingState(w_new, state.logabsdet + float(np.log(r_c)))


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
