"""Deterministic random number generation.

Everything random in this library (parameter init, dataset synthesis,
shuffling, augmentation) flows through one generator: xoshiro256** seeded
via SplitMix64. The algorithm is fixed so that a seed produces the same
datasets and training runs on every platform and in any reimplementation,
which a stdlib or numpy generator does not guarantee across versions.

The generator state is exactly 32 bytes (four u64 words), which is what
checkpoints persist to resume a run mid-stream.

Scalar draws (``random``, ``uniform``, ``randint``) read the stream one u64
at a time. Arrays are counter-based: each ``uniform_array`` (parameter init,
gradient suite inputs) or ``normal_array`` call takes one u64 from the stream
as a key, whatever the shape, and evaluates the outputs of ``splitmix64(key)``
it needs at once over numpy uint64, in the manner of counter-mode SplitMix64
(Steele et al. 2014) and Philox (Salmon et al. 2011). A vector of keys gives
one counter row per key, so the noise augmentation draws one key per image
from the stream and then evaluates every image's Gaussian noise in one call;
row k equals what ``normal_array`` computes from key k. Box-Muller uses both
outputs of each pair of u64 values, the cosine and the sine. The u64 values
are exact integer arithmetic and so platform-independent, and so are the
uniform floats; the Gaussian floats follow numpy's ``log``, ``cos`` and
``sin``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB


def splitmix64(seed: int):
    """Infinite stream of u64 values from a 64-bit seed (state expander)."""
    x = seed & _MASK64
    while True:
        x = (x + _SPLITMIX_GAMMA) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK64
        yield z ^ (z >> 31)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output mixer, in place over uint64 counters; returns ``x``."""
    t = np.empty_like(x)
    for shift, mul in ((30, _SPLITMIX_MUL1), (27, _SPLITMIX_MUL2)):
        np.right_shift(x, shift, out=t)
        x ^= t
        x *= mul
    np.right_shift(x, 31, out=t)
    x ^= t
    return x


def _counters(seed, steps: np.ndarray) -> np.ndarray:
    """SplitMix64 counters ``seed + steps*gamma``, modulo 2**64.

    A scalar seed gives ``steps``' shape; a vector of k u64 seeds puts a
    leading axis of k in front.
    """
    keys = np.asarray(seed & _MASK64, dtype=np.uint64)
    return keys.reshape(keys.shape + (1,) * steps.ndim) + steps * np.uint64(_SPLITMIX_GAMMA)


def _splitmix64_array(seed, n: int) -> np.ndarray:
    """The first ``n`` outputs of ``splitmix64(seed)`` as a uint64 array.

    Output i mixes the counter ``seed + (i+1)*gamma``; uint64 array
    arithmetic wraps modulo 2**64 like the masked scalar version. A scalar
    seed gives shape [n]; a vector of k u64 seeds gives [k, n], row j being
    the outputs of ``splitmix64(seed[j])``.
    """
    return _mix64(_counters(seed, np.arange(1, n + 1, dtype=np.uint64)))


def _gaussian(keys, n: int) -> np.ndarray:
    """``n`` standard normal float64 values per key, by Box-Muller.

    Pair i reads outputs z[2i] and z[2i+1] of ``splitmix64(key)``, with
    u1 = ((z[2i] >> 11) + 1) * 2**-53 in (0, 1] and u2 = (z[2i+1] >> 11) *
    2**-53, and gives two values: value 2i is ``sqrt(-2 ln u1) * cos(2 pi u2)``
    and value 2i+1 is ``sqrt(-2 ln u1) * sin(2 pi u2)``. An odd ``n`` drops the
    last sine. The shape follows ``_splitmix64_array``. The mixer runs in place
    over two contiguous rows, the counters of the even outputs and those of
    the odd ones; the bytes are those of evaluating the formula on
    ``_splitmix64_array``.
    """
    pairs = (n + 1) // 2
    # Counter steps [[1, 3, 5, ..], [2, 4, 6, ..]]: the even outputs, then the odd.
    steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(pairs, 2).T.copy()
    z = _mix64(_counters(keys, steps))
    z1, z2 = z[..., 0, :], z[..., 1, :]
    z1 >>= 11
    z1 += 1
    radius = z1 * 2.0**-53  # u1, in (0, 1]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    z2 >>= 11
    angle = z2 * 2.0**-53  # u2
    angle *= 2.0 * math.pi
    out = np.empty(radius.shape + (2,))
    np.multiply(radius, np.cos(angle), out=out[..., 0])
    np.multiply(radius, np.sin(angle, out=angle), out=out[..., 1])
    return out.reshape(radius.shape[:-1] + (2 * pairs,))[..., :n]


def _draw_count(shape) -> int:
    """The element count of an array draw of ``shape``, taken before its key.

    ``math.prod`` is exact, so no count wraps around. A negative dim, or a
    count of 2**59 or more (its uint64 counters and float64 outputs would
    pass the 2**63 bytes numpy can address), is refused with a
    ``ValueError`` naming the shape, and the stream does not move.
    """
    n = math.prod(shape)
    if min(shape, default=0) < 0 or n >= 2**59:
        raise ValueError(f"cannot draw an array of shape {tuple(shape)}")
    return n


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** stream with helpers for floats, ints and arrays.

    All draws consume the stream in a documented order, so callers that
    need reproducibility only have to fix the seed and the call sequence.
    """

    def __init__(self, seed: int):
        sm = splitmix64(int(seed))
        self._s = [next(sm), next(sm), next(sm), next(sm)]

    # -- core stream ---------------------------------------------------

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    # -- derived draws -------------------------------------------------

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if not 0 < n <= 2**64:
            raise ValueError(f"randint bound must be in [1, 2**64], got {n}")
        limit = (2**64 // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def uniform_array(self, shape, lo: float, hi: float, dtype=np.float32) -> np.ndarray:
        """Uniform array in [lo, hi) keyed by one ``next_u64`` draw, whatever the shape.

        Element i is ``random()``'s transform applied to output i of
        ``splitmix64(key)``.
        """
        n = _draw_count(shape)
        z = _splitmix64_array(self.next_u64(), n)
        out = (z >> 11) * 2.0**-53
        return (lo + (hi - lo) * out).reshape(shape).astype(dtype)

    def normal_array(self, shape, sigma: float, dtype=np.float32) -> np.ndarray:
        """Gaussian array keyed by one ``next_u64`` draw, whatever the shape.

        Element i is ``sigma`` times value i of ``_gaussian(key, size)``.
        """
        n = _draw_count(shape)
        out = _gaussian(self.next_u64(), n)
        return (sigma * out).reshape(shape).astype(dtype)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        idx = list(range(n))
        self.shuffle(idx)
        return np.asarray(idx, dtype=np.int64)

    def spawn(self) -> "Rng":
        """Child stream seeded from this stream (order-sensitive)."""
        return Rng(self.next_u64())

    # -- state persistence ----------------------------------------------

    def state_bytes(self) -> bytes:
        return b"".join(w.to_bytes(8, "little") for w in self._s)

    @classmethod
    def from_state_bytes(cls, raw: bytes) -> "Rng":
        if len(raw) != 32:
            raise ValueError(f"rng state must be 32 bytes, got {len(raw)}")
        if not any(raw):
            raise ValueError("rng state must be four u64 words, not all zero")
        rng = cls.__new__(cls)
        rng._s = [int.from_bytes(raw[i : i + 8], "little") for i in range(0, 32, 8)]
        return rng
