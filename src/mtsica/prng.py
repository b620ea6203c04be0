"""Deterministic pseudo-random number generation.

Every random draw in this package flows through the xoshiro256++ generator
seeded via splitmix64, so results are reproducible bit-for-bit across runs
given the same seed.  Two implementations are provided:

* :class:`Xoshiro256pp` — a scalar generator backed by Python integers,
  used for solver-side draws (initialization, minibatch index sampling).
* :class:`Xoshiro256ppStreams` — a vectorized multi-stream generator backed
  by ``uint64`` arrays, used for bulk synthetic-data generation where many
  independent per-trial streams advance in lockstep.

Both implement the same algorithm; a scalar stream and a one-stream
vectorized generator seeded identically produce identical uint64 output.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest double below 1.0


def splitmix64_mix(x: int) -> int:
    """Apply the splitmix64 output scrambler to a 64-bit value."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream_seed(seed: int, index: int) -> int:
    """Derive an independent stream seed from a root seed and an index.

    The index is spread by the splitmix64 increment before xor-ing so that
    consecutive indices land far apart in seed space.
    """
    return splitmix64_mix((seed ^ ((index * _GAMMA) & _MASK64)) & _MASK64)


def _open_unit(u64: np.ndarray) -> np.ndarray:
    """uint64 draws to uniforms in (0, 1): the top 53 bits plus one half,
    scaled by 2**-53.  The top bucket, ``u64 >> 11 == 2**53 - 1``, would
    round up to 1.0 and maps to the largest double below it instead."""
    u = ((u64 >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


def _splitmix64_expand(seed: int, n: int) -> list[int]:
    # successive splitmix64 outputs used to fill generator state
    out = []
    x = seed & _MASK64
    for _ in range(n):
        x = (x + _GAMMA) & _MASK64
        out.append(splitmix64_mix(x))
    return out


class Xoshiro256pp:
    """Scalar xoshiro256++ generator (Python-integer state).

    Parameters
    ----------
    seed : int
        Any non-negative integer; expanded into the 256-bit state via
        splitmix64.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        s = _splitmix64_expand(self.seed, 4)
        self._s0, self._s1, self._s2, self._s3 = s

    def _u64s(self, n: int) -> list[int]:
        """Advance the state ``n`` steps; returns the ``n`` outputs in order.

        The one scalar xoshiro256++ step: every draw of this class comes
        from here.
        """
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        out = []
        for _ in range(n):
            x = (s0 + s3) & _MASK64
            out.append((((x << 23) | (x >> 41)) + s0) & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        return self._u64s(1)[0]

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n).

        Uses plain modulo reduction; the bias is at most n / 2**64, far
        below anything observable at the sizes used here.
        """
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.next_u64() % n

    def normals(self, shape) -> np.ndarray:
        """Standard normal array via Box-Muller (pairs; odd tails drop one).

        Each pair takes two open-interval uniforms in turn, radius then
        angle.  :class:`Xoshiro256ppStreams` has no normal draws.
        """
        count = int(np.prod(shape))
        n_pairs = (count + 1) // 2
        u = _open_unit(np.array(self._u64s(2 * n_pairs), dtype=np.uint64))
        r = np.sqrt(-2.0 * np.log1p(-u[0::2].copy()))
        a = 2.0 * np.pi * u[1::2].copy()
        out = np.empty(n_pairs * 2)
        out[0::2] = r * np.cos(a)
        out[1::2] = r * np.sin(a)
        return out[:count].reshape(shape)

    def subset(self, n_total: int, n_draw: int) -> np.ndarray:
        """Sample ``n_draw`` distinct indices from range(n_total), sorted.

        Partial Fisher-Yates over a sparse pool: ``moved`` maps each
        position a swap has written to its value, and any other position
        still holds its own index.  A draw costs O(n_draw) whatever
        ``n_total`` is and reduces the same u64s modulo ``n_total - j`` as
        ``below`` calls of swaps over the full list ``range(n_total)``, so
        it returns the same indices and leaves the same state.
        The returned set is sorted ascending so that downstream reductions
        run in a fixed order.  ``n_draw == n_total`` returns
        ``arange(n_total)`` exactly.
        """
        if not 0 < n_draw <= n_total:
            raise ValueError(f"need 0 < n_draw <= n_total, got {n_draw}, {n_total}")
        moved = {}
        picked = []
        for j, u64 in enumerate(self._u64s(n_draw)):
            r = j + u64 % (n_total - j)
            picked.append(moved.get(r, r))
            moved[r] = moved.get(j, j)
        out = np.array(picked, dtype=np.int64)
        out.sort()
        return out


class Xoshiro256ppStreams:
    """Vectorized xoshiro256++: many independent streams advancing together.

    State is a ``(n_streams, 4)`` uint64 array.  Each method call advances
    every stream by the same number of steps, so per-stream output sequences
    are independent of how many sibling streams exist.
    """

    def __init__(self, seeds):
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
        if seeds.ndim != 1:
            raise ValueError("seeds must be one-dimensional")
        self.n_streams = int(seeds.shape[0])
        state = np.empty((self.n_streams, 4), dtype=np.uint64)
        x = seeds.copy()
        gamma = np.uint64(_GAMMA)
        for i in range(4):
            x = x + gamma  # uint64 wraparound intended
            state[:, i] = self._mix(x)
        self._state = state

    @classmethod
    def per_index(cls, seed: int, n_streams: int) -> "Xoshiro256ppStreams":
        """Streams seeded by :func:`derive_stream_seed` (seed, 0..n-1)."""
        seeds = [derive_stream_seed(seed, i) for i in range(n_streams)]
        return cls(np.array(seeds, dtype=np.uint64))

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def next_u64(self) -> np.ndarray:
        """Advance all streams one step; returns ``(n_streams,)`` uint64."""
        s = self._state
        x = s[:, 0] + s[:, 3]
        result = ((x << np.uint64(23)) | (x >> np.uint64(41))) + s[:, 0]
        t = s[:, 1] << np.uint64(17)
        s[:, 2] ^= s[:, 0]
        s[:, 3] ^= s[:, 1]
        s[:, 1] ^= s[:, 2]
        s[:, 0] ^= s[:, 3]
        s[:, 2] ^= t
        s[:, 3] = (s[:, 3] << np.uint64(45)) | (s[:, 3] >> np.uint64(19))
        return result

    def laplace_block(self, count: int) -> np.ndarray:
        """Per-stream Laplace(0, 1) draws; returns ``(n_streams, count)``."""
        out = np.empty((self.n_streams, count))
        for j in range(count):
            v = _open_unit(self.next_u64()) - 0.5
            out[:, j] = -np.sign(v) * np.log1p(-2.0 * np.abs(v))
        return out
