"""Deterministic PRNG layer: scalar vs vectorized agreement, stream
derivation, distributional sanity, and the Fisher-Yates shuffle behind
permutations and index subsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsica.prng import (_CHUNK_ENTRIES, Xoshiro256pp, Xoshiro256ppStreams,
                         _open_unit, derive_stream_seed)
from oracles import (fisher_yates_full_list, laplaces, normals_per_pair,
                     splitmix64_outputs)


def test_seeding_matches_integer_splitmix64():
    # the one uint64-array body against the plain integer generator, whose
    # first output from seed 0 is splitmix64's published 0xe220a8397b1dcdaf
    mask = 2**64 - 1
    assert splitmix64_outputs(0, 1) == [0xE220A8397B1DCDAF]
    for seed in (0, 1, 12345, 2**63, mask, -1, 2**70 + 5):
        first = splitmix64_outputs(seed, 4)
        rng = Xoshiro256pp(seed)
        assert [rng._s0, rng._s1, rng._s2, rng._s3] == first
        for index in (0, 1, 6000, mask, -1):
            spread = (seed ^ (index * 0x9E3779B97F4A7C15)) & mask
            want = splitmix64_outputs(spread - 0x9E3779B97F4A7C15, 1)[0]
            assert derive_stream_seed(seed, index) == want
        streams = Xoshiro256ppStreams(seed, 7)
        for i in range(7):
            scalar = Xoshiro256pp(derive_stream_seed(seed, i))
            assert streams._state[:, i].tolist() == [
                scalar._s0, scalar._s1, scalar._s2, scalar._s3]


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
    assert _open_unit(np.zeros(1, dtype=np.uint64))[0] > 0.0
    assert _open_unit(np.array([2**64 - 1], dtype=np.uint64))[0] < 1.0
    # the top bucket maps to the largest double below 1.0, the one below
    # it keeps its value
    top = _open_unit(np.array([2**64 - 1, 2**64 - 2**11 - 1],
                              dtype=np.uint64))
    assert top.tolist() == [1.0 - 2.0**-53, 1.0 - 2.0**-52]
    rng = Xoshiro256pp(13)
    xs = _open_unit(np.array(rng._u64s(50000), dtype=np.uint64))
    assert xs.min() > 0.0 and xs.max() < 1.0
    # log must be finite on every draw
    assert np.all(np.isfinite(np.log(xs)))


def test_permutation_range_and_error():
    rng = Xoshiro256pp(5)
    firsts = set()
    for _ in range(300):
        perm = rng.permutation(7)
        assert perm.dtype == np.int64
        assert sorted(perm.tolist()) == list(range(7))
        firsts.add(int(perm[0]))
    assert firsts == set(range(7))           # every index can lead
    with pytest.raises(ValueError):
        rng.permutation(0)


@pytest.mark.parametrize("seed", range(5))
def test_permutation_matches_full_list_fisher_yates(seed):
    # the sparse pool gives the whole-list swap loop's order, one u64 per
    # entry, and leaves the generator in the same state
    for n in range(1, 31):
        sparse, full = Xoshiro256pp(seed), Xoshiro256pp(seed)
        assert np.array_equal(sparse.permutation(n),
                              fisher_yates_full_list(full, n, n))
        assert sparse.next_u64() == full.next_u64()


def test_normals_moments_and_shapes():
    rng = Xoshiro256pp(17)
    x = rng.normals((100, 1000))
    assert x.shape == (100, 1000)
    n = x.size
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.std() - 1.0) < 0.01
    # odd count works (one draw of the last pair is dropped)
    assert rng.normals(7).shape == (7,)


@pytest.mark.parametrize("shape", [(7, 33), 1, 2, 5, (10, 10), 462])
def test_normals_match_per_pair_draws(shape):
    # one block of u64s converted at once gives the bits and leaves the
    # state of drawing the uniforms one at a time
    for seed in range(5):
        block, per_pair = Xoshiro256pp(seed), Xoshiro256pp(seed)
        assert np.array_equal(block.normals(shape),
                              normals_per_pair(per_pair, shape))
        assert block.next_u64() == per_pair.next_u64()


def test_scalar_and_stream_generators_agree():
    # the vectorized class must reproduce the scalar class bit for bit,
    # stream i matching a scalar generator seeded by derive_stream_seed
    seed = 42
    streams = Xoshiro256ppStreams(seed, 5)
    scalars = [Xoshiro256pp(derive_stream_seed(seed, i)) for i in range(5)]
    got = np.concatenate([u64 for _, u64 in streams._u64_chunks(50)]).T
    want = np.array([[s.next_u64() for _ in range(50)] for s in scalars],
                    dtype=np.uint64)
    assert np.array_equal(got, want)


def test_laplace_block_matches_scalar_laplaces():
    seed = 2718
    streams = Xoshiro256ppStreams(seed, 4)
    block = streams.laplace_block(33)
    for i in range(4):
        scalar = laplaces(Xoshiro256pp(derive_stream_seed(seed, i)), 33)
        assert np.array_equal(block[i], scalar)


@pytest.mark.parametrize("n_streams, count", [
    (1, _CHUNK_ENTRIES + 5),              # one full chunk and a short one
    (3, 2 * (_CHUNK_ENTRIES // 3) + 7),   # two full chunks and a short one
    (_CHUNK_ENTRIES + 1, 3),              # above the budget: a step a chunk
])
def test_laplace_block_matches_scalar_laplaces_across_chunks(n_streams,
                                                             count):
    # every chunk boundary keeps the per-draw bits, and the state after the
    # block is the scalar stream's after `count` draws
    seed = 31
    streams = Xoshiro256ppStreams(seed, n_streams)
    block = streams.laplace_block(count)
    ((_, after),) = streams._u64_chunks(1)
    scalars = [Xoshiro256pp(derive_stream_seed(seed, i))
               for i in range(n_streams)]
    want = np.array([laplaces(s, count) for s in scalars])
    assert np.array_equal(block, want)
    assert after[0].tolist() == [s.next_u64() for s in scalars]


def test_streams_independent_of_sibling_count():
    # stream 0 of a 1-stream pack equals stream 0 of an 8-stream pack
    one = Xoshiro256ppStreams(9, 1).laplace_block(16)[0]
    eight = Xoshiro256ppStreams(9, 8).laplace_block(16)[0]
    assert np.array_equal(one, eight)
    # also across chunks: 8 streams take 8x fewer steps a chunk than 1
    count = _CHUNK_ENTRIES // 8 + 9
    one = Xoshiro256ppStreams(9, 1).laplace_block(count)[0]
    eight = Xoshiro256ppStreams(9, 8).laplace_block(count)[0]
    assert np.array_equal(one, eight)


@given(sizes=st.integers(1, 40).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_subset_is_sorted_unique_in_range(sizes, seed):
    n_total, n_draw = sizes
    sub = Xoshiro256pp(seed).subset(n_total, n_draw)
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
    # and leaves the generator in the same state (same u64 draws)
    for n_draw in sorted({1, max(1, n_total // 3), n_total}):
        for seed in range(5):
            sparse, full = Xoshiro256pp(seed), Xoshiro256pp(seed)
            got = sparse.subset(n_total, n_draw)
            want = np.sort(fisher_yates_full_list(full, n_total, n_draw))
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
