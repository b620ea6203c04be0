"""Spectral norms against dense LAPACK references, and the calling-thread
matrix product."""

import numpy as np
import pytest

from mtsica import linalg
from mtsica.linalg import serial_matmul, spectral_norm


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(5)
    for shape in [(1, 7), (3, 3), (6, 256), (10, 4)]:
        a = rng.normal(size=shape)
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)
    assert spectral_norm(np.zeros((2, 5))) == 0.0
    # a stack gives each matrix's norm, to the bit of one call per matrix
    stack = rng.normal(size=(7, 3, 64))
    np.testing.assert_array_equal(spectral_norm(stack),
                                  [spectral_norm(a) for a in stack])
    assert spectral_norm(np.ones((2, 2, 2))) == pytest.approx([2.0, 2.0])
    for bad in [np.ones(4), np.float64(1.0)]:
        with pytest.raises(ValueError, match="expects a matrix"):
            spectral_norm(bad)


# (a, b) shapes: below, at and above 2^18 multiply-adds, the A_c pass's
# pair gemm and W @ block at C = 10, rows wider than the limit, a stack
MATMUL_SHAPES = [((32, 64), (64, 64)), ((64, 64), (64, 64)),
                 ((65, 64), (64, 64)), ((55, 4000), (4000, 10)),
                 ((10, 10), (10, 4000)), ((3, 300), (300, 1000)),
                 ((13, 13), (2, 13, 8001))]


@pytest.mark.parametrize("a_shape,b_shape", MATMUL_SHAPES)
def test_serial_matmul_matches_matmul_in_small_gemms(a_shape, b_shape,
                                                      monkeypatch):
    rng = np.random.default_rng(a_shape[0] * b_shape[-1])
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    want = a @ b
    gemms = []
    matmul = np.matmul

    def record(x, y, out):
        gemms.append((x.shape[-2], x.shape[-1], y.shape[-1]))
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", record)
    got = serial_matmul(a, b)
    monkeypatch.undo()
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())
    # each gemm stays under OpenBLAS's one-thread limit, and none has a
    # single row or column (numpy's matrix-vector path)
    assert all(m * k * n <= linalg._GEMM_MNK and m >= 2 and n >= 2
               for m, k, n in gemms)


def test_serial_matmul_fills_out():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(55, 4000)), rng.normal(size=(10, 4000))
    out = np.empty((55, 10))
    assert serial_matmul(a, b.T, out=out) is out
    np.testing.assert_allclose(out, a @ b.T, rtol=1e-13,
                               atol=1e-13 * np.abs(out).max())
    z = rng.normal(size=(2, 13, 8001))
    w = np.eye(13) + 0.3 * rng.normal(size=(13, 13))
    into = np.empty((13, 2, 8001)).transpose(1, 0, 2)    # a strided view
    serial_matmul(w, z, out=into)
    np.testing.assert_allclose(into, w @ z, rtol=1e-13,
                               atol=1e-13 * np.abs(into).max())


def test_serial_matmul_returns_for_a_contraction_longer_than_2_to_16():
    # at k = 70000 no block of two rows and two columns stays under the
    # limit, so the product is one 2 x 70000 x 2 gemm
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(2, 70000)), rng.normal(size=(70000, 2))
    assert serial_matmul(a, b).tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("c_dim", [3, 10, 11, 13])
def test_serial_matmul_keeps_the_bits_of_w_at_block(c_dim):
    # the A_c pass's W @ block (4000 columns): blocks of rows, a last
    # block of one row folded into a two-row gemm, give the unsplit bytes
    rng = np.random.default_rng(c_dim)
    w = np.eye(c_dim) + 0.3 * rng.normal(size=(c_dim, c_dim))
    block = rng.laplace(size=(c_dim, 4000))
    assert serial_matmul(w, block).tobytes() == np.matmul(w, block).tobytes()
