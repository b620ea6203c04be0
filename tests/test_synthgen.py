"""Synthetic dataset generators: source statistics, mixing conditioning,
label construction, and recipe plumbing."""

import tracemalloc

import numpy as np
import pytest

from mtsica.supervision import FeatureMapConfig, feature_map_batch
from mtsica.synthgen import (RECIPES, gen_dataset, gen_gaussian_mixing,
                             gen_hilbert_mixing, gen_laplace_sources,
                             gen_regression_targets)

FM8 = FeatureMapConfig(window=8, hop=4)


# --- sources ---

def test_sources_deterministic_and_seed_sensitive():
    a = gen_laplace_sources(3, 2, 50, seed=42)
    b = gen_laplace_sources(3, 2, 50, seed=42)
    c = gen_laplace_sources(3, 2, 50, seed=43)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert a.shape == (3, 2, 50)


def test_sources_trial_content_independent_of_trial_count():
    # per-trial streams: asking for more trials must not disturb earlier ones
    few = gen_laplace_sources(4, 3, 40, seed=7)
    many = gen_laplace_sources(8, 3, 40, seed=7)
    assert np.array_equal(many[:4], few)


def test_sources_match_unit_laplace_statistics():
    x = gen_laplace_sources(8, 5, 25_000, seed=0).ravel()   # 1e6 draws
    assert x.size == 1_000_000
    assert abs(np.mean(np.abs(x)) - 1.0) < 0.01             # E|x| = 1
    assert abs(np.mean(x)) < 4 * np.sqrt(2.0 / x.size)      # 4 sigma
    assert abs(np.var(x) - 2.0) < 0.05


# --- mixing matrices ---

def test_gaussian_mixing_reproducible_and_conditioned():
    a = gen_gaussian_mixing(10, seed=1)
    assert np.array_equal(a, gen_gaussian_mixing(10, seed=1))
    assert not np.array_equal(a, gen_gaussian_mixing(10, seed=2))
    assert a.shape == (10, 10)
    conds = [np.linalg.cond(gen_gaussian_mixing(10, seed=s))
             for s in range(20)]
    assert max(conds) <= 1e8
    assert np.median(conds) < 1e3


def test_hilbert_mixing_condition_number_is_exact():
    a = gen_hilbert_mixing(10, kappa=5.0, seed=0)
    assert abs(np.linalg.cond(a) - np.exp(5.0)) < 1e-6 * np.exp(5.0)
    assert np.allclose(a, a.T, atol=1e-12)
    evals = np.sort(np.linalg.eigvalsh(a))
    assert np.allclose(evals, np.sort(np.exp(np.linspace(0, 5, 10))),
                       rtol=1e-9)


def test_hilbert_mixing_flat_spectrum_is_identity():
    assert np.allclose(gen_hilbert_mixing(6, 0.0, seed=3), np.eye(6),
                       atol=1e-12)
    assert np.allclose(gen_hilbert_mixing(6, 1e-9, seed=3), np.eye(6),
                       atol=1e-8)


def test_hilbert_mixing_seed_permutes_but_preserves_spectrum():
    mats = [gen_hilbert_mixing(5, 3.0, seed=s) for s in range(6)]
    base = np.sort(np.linalg.eigvalsh(mats[0]))
    assert any(not np.allclose(m, mats[0]) for m in mats[1:])
    for m in mats[1:]:
        assert np.allclose(np.sort(np.linalg.eigvalsh(m)), base, rtol=1e-9)


def test_hilbert_mixing_rejects_negative_kappa():
    with pytest.raises(ValueError):
        gen_hilbert_mixing(4, -0.1, seed=0)


# --- regression targets ---

def test_targets_are_linear_feature_reads():
    src = gen_laplace_sources(5, 3, 16, seed=9)
    labels, theta = gen_regression_targets(src, 2, FM8, seed=4)
    assert labels.shape == (5, 2) and theta.shape == (2, FM8.dim(16))
    for i in range(5):
        for m in range(2):
            want = feature_map_batch(src[i, m:m + 1], FM8)[0] @ theta[m]
            assert labels[i, m] == pytest.approx(want, rel=1e-12)
    assert np.var(labels) > 0.0


def test_targets_deterministic_and_bounded_by_channels():
    src = gen_laplace_sources(4, 2, 16, seed=9)
    l1, t1 = gen_regression_targets(src, 1, FM8, seed=5)
    l2, t2 = gen_regression_targets(src, 1, FM8, seed=5)
    assert np.array_equal(l1, l2) and np.array_equal(t1, t2)
    with pytest.raises(ValueError):
        gen_regression_targets(src, 3, FM8, seed=5)


# --- end-to-end recipes ---

def test_recipe_defaults_and_overrides():
    assert RECIPES["multi_trial"]["n_targets"] == 0
    ds, mixing = gen_dataset("multi_trial", 0, n_trials=3, channels=4,
                             samples=30)
    assert ds.signals.shape == (3, 4, 30)
    assert ds.labels.shape == (3, 0) and ds.targets == ()
    assert mixing.shape == (4, 4)

    ds2, mix2 = gen_dataset("supervision", 0, n_trials=3, channels=4,
                            samples=16, n_targets=2, kappa=2.0, fm_cfg=FM8)
    assert ds2.labels.shape == (3, 2)
    assert [t.name for t in ds2.targets] == ["y0", "y1"]
    assert all(t.kind == "continuous" for t in ds2.targets)
    assert abs(np.linalg.cond(mix2) - np.exp(2.0)) < 1e-6 * np.exp(2.0)


def test_gen_dataset_deterministic_and_prefix_stable():
    d1, m1 = gen_dataset("multi_trial", 11, n_trials=4, channels=3,
                         samples=20)
    d2, m2 = gen_dataset("multi_trial", 11, n_trials=4, channels=3,
                         samples=20)
    assert d1.signals.tobytes() == d2.signals.tobytes()
    assert np.array_equal(m1, m2)
    d8, m8 = gen_dataset("multi_trial", 11, n_trials=8, channels=3,
                         samples=20)
    assert np.array_equal(m8, m1)               # mixing ignores trial count
    assert np.array_equal(d8.signals[:4], d1.signals)


def test_gen_dataset_keeps_one_copy_of_the_signals():
    # the sources and the signals coexist once; the dataset keeps the
    # signals it is given instead of copying them
    tracemalloc.start()
    try:
        ds, _ = gen_dataset("multi_trial", 3, n_trials=40, channels=6,
                            samples=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ds.signals.flags.writeable
    assert peak <= 2.1 * ds.signals.nbytes


def test_gen_dataset_feature_config_reaches_labels():
    raw, _ = gen_dataset("supervision", 2, n_trials=3, channels=3,
                         samples=16, n_targets=1, kappa=1.0, fm_cfg=FM8)
    logf, _ = gen_dataset(
        "supervision", 2, n_trials=3, channels=3, samples=16, n_targets=1,
        kappa=1.0, fm_cfg=FeatureMapConfig(window=8, hop=4, log_power=True))
    assert not np.array_equal(raw.labels, logf.labels)


def test_gen_dataset_rejects_kappa_with_gaussian_mixing():
    # kappa would not reach the data, only the generator echo
    with pytest.raises(ValueError, match="kappa"):
        gen_dataset("multi_trial", 0, n_trials=2, channels=2, samples=8,
                    kappa=3.0)


def test_gen_dataset_validation():
    with pytest.raises(ValueError):
        gen_dataset("bootstrap", 0)
    with pytest.raises(ValueError):
        gen_dataset("multi_trial", 0, n_trials=0)
    with pytest.raises(ValueError):
        gen_dataset("supervision", 0, channels=2, n_targets=3,
                    samples=16, n_trials=2, fm_cfg=FM8)
