"""Spectral norms against dense LAPACK references."""

import numpy as np
import pytest

from mtsica.linalg import operator_norm, spectral_norm


def symmetric_cases(dim, rng):
    g = rng.normal(size=(dim, dim))
    u = rng.normal(size=dim)
    return {
        # eigenvalues of equal magnitude and opposite sign
        "indefinite": np.diag([1.0, -1.0] + [0.5] * (dim - 2)),
        "psd": g @ g.T,
        "rank1": np.outer(u, u),
        "zero": np.zeros((dim, dim)),
    }


@pytest.mark.parametrize("dim", [2, 3, 50])
def test_operator_norm_matches_dense_eigenvalues(dim):
    rng = np.random.default_rng(dim)
    for name, a in symmetric_cases(dim, rng).items():
        got = operator_norm(lambda v: a @ v, dim)
        want = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        if name == "zero":
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-12), name


def test_operator_norm_is_deterministic():
    a = np.random.default_rng(1).normal(size=(30, 30))
    a = a + a.T
    assert operator_norm(lambda v: a @ v, 30) == \
        operator_norm(lambda v: a @ v, 30)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(5)
    for shape in [(1, 7), (3, 3), (6, 256), (10, 4)]:
        a = rng.normal(size=shape)
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)
    assert spectral_norm(np.zeros((2, 5))) == 0.0
    for bad in [np.ones(4), np.ones((2, 2, 2))]:
        with pytest.raises(ValueError, match="expects a matrix"):
            spectral_norm(bad)
