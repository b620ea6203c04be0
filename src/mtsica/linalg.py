"""Spectral norms by dense LAPACK, and the matrix product that the fit
loop runs on the calling thread."""

from __future__ import annotations

import numpy as np

# Largest m*n*k of one gemm that OpenBLAS runs on the calling thread; a
# larger one wakes its worker pool.  At the fit loop's shapes the pool
# saved no time (see unmixing._A_BLOCK), its packing buffer added ~2.5 MB
# to a supervised fit's peak RSS, and a threaded product's bits could
# depend on the thread count (2-vCPU Xeon, OpenBLAS 0.3.31 on 2 threads).
_GEMM_MNK = 1 << 18


def serial_matmul(a: np.ndarray, b: np.ndarray,
                  out: np.ndarray = None) -> np.ndarray:
    """``a @ b`` as gemms of at most ``_GEMM_MNK`` multiply-adds each, so
    on the calling thread whatever the BLAS thread count.

    ``a`` is (m, k) and ``b`` is (k, n) or a stack (..., k, n); the result
    goes into ``out`` when given.  ``a`` is cut into blocks of rows, and
    the columns of ``b`` too when two rows are wider than the limit (k is
    never split).  A block of one row or column would run numpy's
    matrix-vector kernel, so a last block of one overlaps the one before;
    a one-row ``a`` is such a product, which OpenBLAS threads above about
    9000 entries.  As blocks keep two rows and, when ``b`` has them, two
    columns, a contraction longer than 2^16 can exceed the limit per
    gemm, and OpenBLAS may thread such a gemm.
    Every entry is one gemm's sum over k; OpenBLAS picks its kernel by
    size, so the last bit may differ from one unsplit gemm's, but it does
    not depend on the thread count.
    """
    m, k = a.shape
    n = b.shape[-1]
    if m * k * n <= _GEMM_MNK:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(b.shape[:-2] + (m, n))
    if n > 2 and 2 * k * n > _GEMM_MNK:
        for lo, hi in _blocks(n, max(2, _GEMM_MNK // (2 * k))):
            serial_matmul(a, b[..., lo:hi], out=out[..., lo:hi])
        return out
    for lo, hi in _blocks(m, max(2, _GEMM_MNK // (k * n))):
        np.matmul(a[lo:hi], b, out=out[..., lo:hi, :])
    return out


def _blocks(size, step):
    """Bounds of consecutive blocks of ``step``; a last block of one
    starts one earlier."""
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        yield (hi - 2 if hi - lo == 1 and lo > 0 else lo), hi


def spectral_norm(mat: np.ndarray) -> float:
    """Matrix 2-norm (largest singular value)."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    return float(np.linalg.norm(a, 2))
