"""Deterministic pseudo-random number generation.

Every random draw in this package flows through the xoshiro256++ generator
seeded via splitmix64, so results are reproducible bit-for-bit across runs
given the same seed.  One splitmix64 body, on ``uint64`` arrays, scrambles
every seed: the state words of both generators and the stream seeds of
:func:`derive_stream_seed`.  Two generators are provided:

* :class:`Xoshiro256pp` — a scalar generator backed by Python integers,
  used for solver-side draws (initialization, minibatch index sampling)
  and the mixing spectrum's order.  Its one Fisher-Yates shuffle, sparse
  and partial, gives both :meth:`~Xoshiro256pp.permutation` (all of it)
  and :meth:`~Xoshiro256pp.subset` (its first entries, sorted).
* :class:`Xoshiro256ppStreams` — a vectorized multi-stream generator backed
  by ``uint64`` arrays, used for bulk synthetic-data generation where many
  independent per-trial streams advance in lockstep.  Stream i of
  ``Xoshiro256ppStreams(seed, n)`` is seeded by
  ``derive_stream_seed(seed, i)``.  It steps its state in place, keeps the
  two state words each output reads, and scrambles and transforms the
  outputs a chunk of about ``2**12`` entries at a time.

Both implement the same algorithm; a scalar stream and a one-stream
vectorized generator seeded identically produce identical uint64 output.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest double below 1.0
# the shift and rotation counts of splitmix64 and of the vectorized
# xoshiro256++ step and scrambler
_U17, _U19, _U23, _U27, _U30, _U31, _U41, _U45 = (
    np.uint64(k) for k in (17, 19, 23, 27, 30, 31, 41, 45))
# streams x steps per chunk of Xoshiro256ppStreams draws: the chunk's
# temporaries stay this many entries whatever the dataset's size
_CHUNK_ENTRIES = 1 << 12


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 output scrambler of every entry of a uint64 array.

    Products wrap modulo 2**64; numpy warns at a wrap of a scalar or 0-d
    array, so callers pass arrays of at least one dimension.
    """
    z = (x ^ (x >> _U30)) * _MIX1
    z = (z ^ (z >> _U27)) * _MIX2
    return z ^ (z >> _U31)


def _stream_seeds(seed: int, indices) -> np.ndarray:
    """``derive_stream_seed(seed, i)`` of every i in ``indices``, as uint64."""
    spread = np.asarray(indices, dtype=np.uint64) * _GAMMA
    return _splitmix64(spread ^ np.uint64(seed & _MASK64))


def _seed_state(seeds: np.ndarray) -> np.ndarray:
    """The xoshiro256++ state of each uint64 seed: its first four splitmix64
    outputs, as a C-contiguous ``(4, n)`` array (column j seeds stream j)."""
    steps = np.arange(1, 5, dtype=np.uint64) * _GAMMA
    return _splitmix64(steps[:, None] + seeds)


def derive_stream_seed(seed: int, index: int) -> int:
    """Derive an independent stream seed from a root seed and an index.

    The index is spread by the splitmix64 increment before xor-ing so that
    consecutive indices land far apart in seed space.
    """
    return int(_stream_seeds(seed, [index & _MASK64])[0])


def _open_unit(u64: np.ndarray) -> np.ndarray:
    """uint64 draws to uniforms in (0, 1): the top 53 bits plus one half,
    scaled by 2**-53.  The top bucket, ``u64 >> 11 == 2**53 - 1``, would
    round up to 1.0 and maps to the largest double below it instead."""
    u = ((u64 >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


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
        state = _seed_state(np.array([self.seed & _MASK64], dtype=np.uint64))
        self._s0, self._s1, self._s2, self._s3 = (int(w) for w in state[:, 0])

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

    def _shuffle(self, n_total: int, n_draw: int) -> np.ndarray:
        """The first ``n_draw`` entries of a Fisher-Yates shuffle of
        ``range(n_total)``, in draw order.

        The one shuffle of this class.  Swap j takes
        ``r = j + u64 % (n_total - j)`` (plain modulo reduction; the bias
        is at most n_total / 2**64) and swaps positions j and r.  The pool
        is sparse: ``moved`` maps each position a swap has written to its
        value, and any other position still holds its own index, so a draw
        costs O(n_draw) whatever ``n_total`` is.
        """
        if not 0 < n_draw <= n_total:
            raise ValueError(f"need 0 < n_draw <= n_total, got {n_draw}, {n_total}")
        moved = {}
        picked = []
        for j, u64 in enumerate(self._u64s(n_draw)):
            r = j + u64 % (n_total - j)
            picked.append(moved.get(r, r))
            moved[r] = moved.get(j, j)
        return np.array(picked, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform random permutation of ``range(n)``: a full
        :meth:`_shuffle`, one u64 per entry."""
        return self._shuffle(n, n)

    def subset(self, n_total: int, n_draw: int) -> np.ndarray:
        """Sample ``n_draw`` distinct indices from range(n_total), sorted.

        The first ``n_draw`` entries of the shuffle :meth:`permutation`
        makes of ``range(n_total)``, from the same u64s, sorted ascending so
        that downstream reductions run in a fixed order.  ``n_draw ==
        n_total`` returns ``arange(n_total)`` exactly.
        """
        out = self._shuffle(n_total, n_draw)
        out.sort()
        return out


class Xoshiro256ppStreams:
    """Vectorized xoshiro256++: many independent streams advancing together.

    Stream i is seeded by ``derive_stream_seed(seed, i)``; one array step
    derives them all.  State is a ``(4, n_streams)`` uint64 array, one
    contiguous row per state word, stepped in place.  Each method call
    advances every stream by the same number of steps, so per-stream output
    sequences are independent of how many sibling streams exist.
    """

    def __init__(self, seed: int, n_streams: int):
        self.n_streams = int(n_streams)
        self._state = _seed_state(_stream_seeds(seed, np.arange(n_streams)))

    def _u64_chunks(self, count: int):
        """Advance every stream ``count`` steps; yields ``(j0, u64)``, the
        outputs of steps ``j0, j0 + 1, ...`` as a ``(steps, n_streams)``
        array, in chunks of ``max(1, _CHUNK_ENTRIES // n_streams)`` steps.

        The one vectorized xoshiro256++ step: every draw of this class comes
        from here.  A step updates the state rows in place and records only
        the words the output reads, s0 and s3; the scrambler
        ``rotl(s0 + s3, 23) + s0`` then runs once over the chunk.  The state
        is past a chunk's last step when the chunk is yielded.
        """
        s0, s1, s2, s3 = self._state
        steps = max(1, _CHUNK_ENTRIES // self.n_streams)
        t = np.empty(self.n_streams, dtype=np.uint64)
        for j0 in range(0, count, steps):
            m = min(steps, count - j0)
            x = np.empty((m, self.n_streams), dtype=np.uint64)
            w0 = np.empty_like(x)
            for k in range(m):
                w0[k] = s0
                x[k] = s3
                np.left_shift(s1, _U17, out=t)
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                np.right_shift(s3, _U19, out=t)
                s3 <<= _U45
                s3 |= t
            x += w0
            hi = x >> _U41
            x <<= _U23
            x |= hi
            x += w0
            del w0, hi      # only the outputs stay alive while they are read
            yield j0, x

    def laplace_block(self, count: int) -> np.ndarray:
        """Per-stream Laplace(0, 1) draws; returns ``(n_streams, count)``.

        Entry ``[i, j]`` is ``-sign(v) * log1p(-2|v|)`` with
        ``v = _open_unit(u) - 0.5`` of stream i's j-th output: the inverse
        CDF, applied to one chunk of :meth:`_u64_chunks` at a time, so the
        temporaries stay chunk-sized whatever ``count`` is.  The steps run
        in place on two chunk arrays, and no chunk array outlives its chunk,
        so at most three are alive at once.  Each product and negation is
        exact, so the steps give the bits of the formula.
        """
        out = np.empty((self.n_streams, count))
        for j0, u64 in self._u64_chunks(count):
            v = _open_unit(u64)
            del u64
            v -= 0.5
            lap = np.abs(v)
            lap *= -2.0
            np.log1p(lap, out=lap)
            lap *= np.negative(np.sign(v, out=v), out=v)
            out[:, j0:j0 + len(lap)] = lap.T
            del v, lap
        return out
