"""Deterministic PRNG layer: scalar vs vectorized agreement, stream
derivation, distributional sanity, and index-subset sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsica.prng import (Xoshiro256pp, Xoshiro256ppStreams,
                         derive_stream_seed, splitmix64_mix)
from oracles import laplaces, subset_full_list


def test_splitmix_mix_is_deterministic_and_64bit():
    a = splitmix64_mix(12345)
    assert a == splitmix64_mix(12345)
    assert 0 <= a < 2**64
    assert splitmix64_mix(12346) != a


def test_derive_stream_seed_distinct_per_index():
    seeds = [derive_stream_seed(7, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert all(0 <= s < 2**64 for s in seeds)
    # stable across calls
    assert seeds == [derive_stream_seed(7, i) for i in range(64)]


def test_same_seed_same_sequence():
    a = Xoshiro256pp(99)
    b = Xoshiro256pp(99)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    a = [Xoshiro256pp(1).next_u64() for _ in range(4)]
    b = [Xoshiro256pp(2).next_u64() for _ in range(4)]
    assert a != b


def test_outputs_are_u64():
    rng = Xoshiro256pp(3)
    for _ in range(100):
        v = rng.next_u64()
        assert 0 <= v < 2**64


def test_random_unit_interval():
    rng = Xoshiro256pp(11)
    xs = np.array([rng.random() for _ in range(20000)])
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - 0.5) < 0.02


def test_open_unit_never_hits_endpoints():
    rng = Xoshiro256pp(13)
    xs = np.array([rng._open_unit() for _ in range(50000)])
    assert xs.min() > 0.0 and xs.max() < 1.0
    # log must be finite on every draw
    assert np.all(np.isfinite(np.log(xs)))


def test_below_range_and_error():
    rng = Xoshiro256pp(5)
    draws = [rng.below(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    with pytest.raises(ValueError):
        rng.below(0)


def test_normals_moments_and_shapes():
    rng = Xoshiro256pp(17)
    x = rng.normals((100, 1000))
    assert x.shape == (100, 1000)
    n = x.size
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.std() - 1.0) < 0.01
    # odd count works (one draw of the last pair is dropped)
    assert rng.normals(7).shape == (7,)


def test_laplaces_moments():
    rng = Xoshiro256pp(23)
    x = laplaces(rng, 1_000_000)
    assert abs(np.mean(np.abs(x)) - 1.0) < 0.01  # E|x| = 1 for Laplace(1)
    assert abs(x.mean()) < 4.0 * np.sqrt(2.0 / x.size)
    assert abs(x.std() - np.sqrt(2.0)) < 0.01
    # symmetric tails
    assert abs(np.mean(x > 0) - 0.5) < 0.005


def test_scalar_and_stream_generators_agree():
    # the vectorized class must reproduce the scalar class bit for bit,
    # stream i matching a scalar generator seeded by derive_stream_seed
    seed = 42
    streams = Xoshiro256ppStreams.per_index(seed, 5)
    scalars = [Xoshiro256pp(derive_stream_seed(seed, i)) for i in range(5)]
    got = np.array([streams.next_u64() for _ in range(50)]).T
    want = np.array([[s.next_u64() for _ in range(50)] for s in scalars],
                    dtype=np.uint64)
    assert np.array_equal(got, want)


def test_laplace_block_matches_scalar_laplaces():
    seed = 2718
    streams = Xoshiro256ppStreams.per_index(seed, 4)
    block = streams.laplace_block(33)
    for i in range(4):
        scalar = laplaces(Xoshiro256pp(derive_stream_seed(seed, i)), 33)
        assert np.array_equal(block[i], scalar)


def test_streams_independent_of_sibling_count():
    # stream 0 of a 1-stream pack equals stream 0 of an 8-stream pack
    one = Xoshiro256ppStreams.per_index(9, 1).laplace_block(16)[0]
    eight = Xoshiro256ppStreams.per_index(9, 8).laplace_block(16)[0]
    assert np.array_equal(one, eight)


@given(n_total=st.integers(1, 40), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_subset_is_sorted_unique_in_range(n_total, seed):
    rng = Xoshiro256pp(seed)
    n_draw = 1 + rng.below(n_total)
    sub = rng.subset(n_total, n_draw)
    assert sub.shape == (n_draw,)
    assert np.all(np.diff(sub) > 0)            # sorted + unique
    assert sub.min() >= 0 and sub.max() < n_total


def test_subset_full_draw_is_arange():
    rng = Xoshiro256pp(1)
    for n in (1, 2, 5, 17):
        assert np.array_equal(rng.subset(n, n), np.arange(n))


@pytest.mark.parametrize("n_total", [1, 7, 500])
def test_subset_matches_full_list_fisher_yates(n_total):
    # the sparse pool returns the indices of a swap over the whole list
    # and leaves the generator in the same state (same below() calls)
    for n_draw in sorted({1, max(1, n_total // 3), n_total}):
        for seed in range(5):
            sparse, full = Xoshiro256pp(seed), Xoshiro256pp(seed)
            got = sparse.subset(n_total, n_draw)
            want = subset_full_list(full, n_total, n_draw)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert sparse.next_u64() == full.next_u64()


def test_subset_rejects_bad_sizes():
    rng = Xoshiro256pp(1)
    with pytest.raises(ValueError):
        rng.subset(5, 0)
    with pytest.raises(ValueError):
        rng.subset(5, 6)


def test_subset_approximately_uniform():
    # every 2-subset of {0..4} should appear with frequency ~ 1/10
    rng = Xoshiro256pp(77)
    counts = {}
    n_draws = 20000
    for _ in range(n_draws):
        key = tuple(rng.subset(5, 2))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 10
    freqs = np.array(list(counts.values())) / n_draws
    # 5 sigma band around 0.1 for a binomial with p = 0.1
    sigma = np.sqrt(0.1 * 0.9 / n_draws)
    assert np.all(np.abs(freqs - 0.1) < 5 * sigma)
