"""Amari misalignment, whitening, FOBI baseline, and holdout scoring."""

import numpy as np
import pytest

from mtsica.data import Dataset, TargetSchema
from mtsica.metrics import (FobiResult, amari_distance, evaluate_predictions,
                            fobi, success_rate, whiten)
from mtsica.supervision import (FeatureMapConfig, SupervisedTargetModel,
                                feature_map_batch, predict_batch)

FM8 = FeatureMapConfig(window=8, hop=4)


def rand_orth(rng, c):
    q, _ = np.linalg.qr(rng.normal(size=(c, c)))
    return q


# --- amari distance ---

def test_amari_hand_case_is_exactly_one():
    assert amari_distance(np.array([[1.0, 0.5], [0.0, 1.0]]),
                          np.eye(2)) == 1.0


def test_amari_zero_on_scaled_permutations():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = int(rng.integers(2, 6))
        a = rng.normal(size=(c, c)) + 2.0 * np.eye(c)
        perm = np.eye(c)[rng.permutation(c)]
        scales = np.diag(rng.uniform(0.2, 5.0, c) *
                         rng.choice([-1.0, 1.0], c))
        w = scales @ perm @ np.linalg.inv(a)
        assert amari_distance(w, a) < 1e-10


def test_amari_positive_off_the_equivalence_class():
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = rng.normal(size=(3, 3)) + np.eye(3)
        assert amari_distance(w, np.eye(3) + 0.3) > 0.01


def test_amari_permutation_invariance():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(4, 4)) + np.eye(4)
    a = rng.normal(size=(4, 4)) + np.eye(4)
    base = amari_distance(w, a)
    for _ in range(5):
        p = np.eye(4)[rng.permutation(4)]
        assert amari_distance(p @ w, a) == pytest.approx(base, rel=1e-12)


def test_amari_input_validation():
    with pytest.raises(ValueError):
        amari_distance(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        amari_distance(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        amari_distance(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        amari_distance(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2))


# --- whitening ---

def test_whiten_output_has_identity_covariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4)) @ rng.normal(size=(4, 300)) + 2.0
    y, v = whiten(x)
    yc = y - y.mean(axis=1, keepdims=True)
    assert np.allclose(yc @ yc.T / y.shape[1], np.eye(4), atol=1e-10)
    assert np.allclose(v, v.T, atol=1e-12)          # symmetric whitener


def test_whiten_of_white_signal_is_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 500))
    y, _ = whiten(x)
    _, v2 = whiten(y)
    assert np.allclose(v2, np.eye(3), atol=1e-8)


def test_whiten_recovers_population_scales():
    rng = np.random.default_rng(5)
    x = np.diag([2.0, 3.0]) @ rng.normal(size=(2, 100_000))
    _, v = whiten(x)
    assert abs(v[0, 0] - 0.5) < 0.025
    assert abs(v[1, 1] - 1.0 / 3.0) < 0.017
    assert abs(v[0, 1]) < 0.02


def test_whiten_rejects_degenerate_input():
    x = np.random.default_rng(6).normal(size=(1, 50))
    with pytest.raises(ValueError):
        whiten(np.vstack([x, x]))
    with pytest.raises(ValueError):
        whiten(np.zeros(10))


# --- FOBI ---

def distinct_kurtosis_sources(rng, s):
    return np.vstack([
        rng.laplace(size=s),                        # heavy tails
        rng.uniform(-1.0, 1.0, size=s),             # light tails
        rng.choice([-1.0, 1.0], size=s),            # extreme light tails
    ])


def test_fobi_separates_distinct_kurtosis_mixture():
    rng = np.random.default_rng(7)
    src = distinct_kurtosis_sources(rng, 20_000)
    a = rng.normal(size=(3, 3)) + 1.5 * np.eye(3)
    res = fobi(a @ src)
    assert isinstance(res, FobiResult)
    assert amari_distance(res.w, a) < 0.5
    assert not res.degenerate
    assert np.all(np.diff(res.eigenvalues) <= 0)    # sorted descending


def test_fobi_identity_mixing():
    rng = np.random.default_rng(8)
    src = distinct_kurtosis_sources(rng, 20_000)
    res = fobi(src.copy())
    assert amari_distance(res.w, np.eye(3)) < 0.5


def test_fobi_orthogonal_mixing_equivariance():
    # rotating the input rotates the recovered unmixing accordingly:
    # the product W A must land on the same scaled permutation
    rng = np.random.default_rng(9)
    src = distinct_kurtosis_sources(rng, 20_000)
    q = rand_orth(rng, 3)
    r_plain = fobi(src.copy()).w @ np.eye(3)
    r_rot = fobi(q @ src).w @ q
    # align: each should be close to a signed permutation of the other
    assert amari_distance(r_rot, np.linalg.inv(r_plain)) < 0.2


def test_fobi_flags_repeated_kurtosis():
    rng = np.random.default_rng(10)
    src = np.vstack([rng.laplace(size=20_000),
                     rng.laplace(size=20_000),
                     rng.uniform(-1, 1, size=20_000)])
    res = fobi(src)
    assert res.degenerate


def test_fobi_degeneracy_threshold_override():
    rng = np.random.default_rng(11)
    src = distinct_kurtosis_sources(rng, 20_000)
    assert fobi(src.copy(), degeneracy_rtol=1e-15).degenerate is False
    assert fobi(src.copy(), degeneracy_rtol=1e6).degenerate is True


# --- aggregate metrics ---

def test_success_rate_counts_strictly_below():
    assert success_rate([0.1, 0.2, 0.3], 0.25) == pytest.approx(2 / 3)
    assert success_rate([0.25], 0.25) == 0.0
    assert success_rate(np.array([1.0, 2.0]), 5.0) == 1.0
    with pytest.raises(ValueError):
        success_rate([], 0.1)


def test_evaluate_predictions_perfect_regression():
    rng = np.random.default_rng(12)
    sources = rng.normal(size=(6, 2, 16))
    a = np.array([[2.0, 0.5], [-0.3, 1.0]])
    signals = np.einsum("cd,ndt->nct", a, sources)
    theta = rng.normal(size=FM8.dim(16))
    labels = np.array([[feature_map_batch(sources[i, :1], FM8)[0] @ theta]
                       for i in range(6)])
    ds = Dataset(signals, labels, (TargetSchema("y", "continuous"),))
    model = SupervisedTargetModel(ds.targets[0], theta)
    (metric,) = evaluate_predictions(np.linalg.inv(a), [model], ds, FM8)
    assert metric.metric == "rmse" and metric.name == "y"
    assert metric.value < 1e-8


def test_evaluate_predictions_subset_and_accuracy():
    rng = np.random.default_rng(13)
    signals = rng.normal(size=(8, 2, 16))
    schema = TargetSchema("k", "categorical", n_classes=2)
    model = SupervisedTargetModel(schema, rng.normal(size=(2, FM8.dim(16))))
    w = np.eye(2)
    pred = predict_batch(model, signals[:, 0, :], FM8)
    labels = pred.copy()
    labels[:4] = 1.0 - labels[:4]                  # force half wrong
    ds = Dataset(signals, labels[:, None], (schema,))
    (full,) = evaluate_predictions(w, [model], ds, FM8)
    assert full.metric == "accuracy" and full.value == 0.5
    (wrong,) = evaluate_predictions(w, [model], ds, FM8,
                                    trial_indices=np.arange(4))
    assert wrong.value == 0.0
    (right,) = evaluate_predictions(w, [model], ds, FM8,
                                    trial_indices=np.arange(4, 8))
    assert right.value == 1.0
