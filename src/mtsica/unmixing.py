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

from .data import _own_readonly
from .linalg import _blocks, serial_matmul


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

    ``batch`` is the trial-major batch ``z[trials][:, :, times]``, shape
    (n, C, tau), read in place as the (C, n*tau) columns ``batch[i, :, t]``
    in (trial, time) order, and ``u_c[i, t]`` their auxiliary weights::

        A_c = (1/(n*tau)) * sum_{i in trials} sum_{t in times}
              u_c[i, t] * z_i[:, t] z_i[:, t]^T

    The pass walks the columns in blocks of ``_A_BLOCK``.  Each block is
    copied into a reused buffer (:func:`_columns`) and gets x = W @ block
    once, in a second reused buffer (a last block of one column takes it
    from the gemm of two that ``_blocks`` folds).  ``step(x, start,
    stop)`` turns x into the weights of columns ``start:stop`` (it may
    overwrite x and return it).  Then, for each row a, the block's
    products z_a z_b (b >= a) fill a third reused buffer and add one
    matrix product with the weights into every ``A_c[a, b]``, b >= a, so
    all C matrices cost one read of the batch and no (n*tau) x C^2 array
    is ever built.  Every product stays on the calling thread
    (:func:`serial_matmul`).  Each A_c is filled from its upper triangle,
    then mirrored, and so is exactly symmetric.
    """
    c_dim, cols = len(w), batch.size // len(w)
    # acc[a, b, c] = n*tau * A_c[a, b] for b >= a: row a's products add
    # into one contiguous slice (a strided add into a_set[:, a, a:] took
    # ~2.5x as long, 5% of the pass at C = 10)
    acc = np.zeros((c_dim, c_dim, c_dim))
    z_buf, pairs, x_buf = (_aligned(c_dim, min(_A_BLOCK, cols))
                           for _ in range(3))
    start = 0
    for lo, stop in _blocks(cols, _A_BLOCK):
        flat = _columns(batch, lo, stop, z_buf)
        x = serial_matmul(w, flat, out=x_buf[:, :stop - lo])[:, start - lo:]
        block = flat[:, start - lo:]
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


def _aligned(rows, cols):
    # 64-byte aligned: at malloc's 16 bytes the pass ran ~35% slower (Xeon)
    raw = np.empty(rows * cols + 8)
    return raw[-raw.ctypes.data % 64 // 8:][:rows * cols].reshape(rows, cols)


def _columns(batch, lo, hi, out):
    """Columns ``lo:hi`` of ``batch`` copied into ``out[:, :hi - lo]``: a
    partial trial, the whole trials in one copy, a partial trial."""
    tau, pos = batch.shape[2], lo
    while pos < hi:
        i, t = divmod(pos, tau)
        width = min(tau - t, hi - pos)
        k = 1 if t else max(1, (hi - pos) // tau)   # trials in this copy
        out[:, pos - lo:pos - lo + k * width].reshape(-1, k, width)[...] = \
            batch[i:i + k, :, t:t + width].transpose(1, 0, 2)
        pos += k * width
    return out[:, :hi - lo]


def compute_B(grad_s, batch: np.ndarray, times) -> np.ndarray:
    """Supervised coupling matrix; row m drives the update of W row m.

    Row m is the minibatch estimate of the gradient of the mean supervised
    loss of target m with respect to W_m:

        B[m] = (1/n) * sum_{i in trials} (T/tau) *
               sum_{t in times} d loss_m / d s_t * z_i[:, t]^T

    ``grad_s[m]``, shape (n, T), is that source gradient for the batch
    trials on the *full* time axis (the feature windows couple all
    samples); ``batch`` is the trial-major batch ``z[trials][:, :, times]``,
    (n, C, tau), and ``times`` indexes the time axis of ``grad_s[m]`` (an
    index array or a slice).  Each row sums one matrix-vector product per
    trial, far too small at minibatch sizes for OpenBLAS to thread.  The
    T/tau factor makes the estimator unbiased in the time draw.  Rows
    beyond ``len(grad_s)`` are zero.  The supervision weight lam is *not*
    folded in here; it enters in the row objective.
    """
    n, c, tau = batch.shape
    b_mat = np.zeros((c, c))
    for m, grad in enumerate(grad_s):
        per_trial = np.matmul(batch, grad[:, times][:, :, None])  # (n, C, 1)
        b_mat[m] = (grad.shape[1] / tau) * per_trial.sum(axis=0)[:, 0] / n
    return b_mat


def row_update(state: UnmixingState, a_c: np.ndarray, b_mat: np.ndarray,
               comp: int, eta_u: float, lam: float) -> UnmixingState:
    """Exact minimization of the row objective for one component.

    Reparametrize the candidate row as r^T W (W the current matrix); the
    objective in r is ``(1/2) r^T K r - log|r_c| - r^T b`` with::

        K = W (A_c + I/eta_u) W^T
        b = W (W_c / eta_u - lam * B_c)

    A Cholesky factorization checks that K is positive definite, and one
    solve of K against ``[e_c, b]`` gives both vectors.  The stationary
    condition gives the positive branch

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
    # exactly symmetric: the Cholesky reads one triangle, the solve both
    k_mat = 0.5 * (k_mat + k_mat.T)
    b_vec = w @ (inv_eta * w[comp] - lam * b_mat[comp])
    rhs = np.zeros((c_dim, 2))
    rhs[comp, 0] = 1.0
    rhs[:, 1] = b_vec
    try:
        np.linalg.cholesky(k_mat)
        sol = np.linalg.solve(k_mat, rhs)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            f"row {comp}: K not positive definite") from None
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
