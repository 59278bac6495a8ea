"""Determinism and distribution sanity for the seeded generator.

The stream values themselves are pinned as regression constants (captured
from this implementation) so any accidental change to the seeding or state
transition shows up as a hard failure, not a silent reshuffle of every
downstream dataset and training run.
"""

import itertools
import math
import re

import numpy as np
import pytest

from lcanet.rng import Rng, _gaussian, _splitmix64_array, splitmix64


# First four raw draws for seed 42, frozen at construction time.
_SEED42_STREAM = [
    0x15780B2E0C2EC716,
    0x6104D9866D113A7E,
    0xAE17533239E499A1,
    0xECB8AD4703B360A1,
]


def test_stream_is_frozen():
    r = Rng(42)
    assert [r.next_u64() for _ in range(4)] == _SEED42_STREAM


def test_same_seed_same_stream():
    a, b = Rng(123), Rng(123)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a, b = Rng(0), Rng(1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_state_roundtrip_resumes_stream():
    r = Rng(9)
    for _ in range(17):
        r.next_u64()
    snap = r.state_bytes()
    ahead = [r.next_u64() for _ in range(10)]
    r = Rng.from_state_bytes(snap)
    assert [r.next_u64() for _ in range(10)] == ahead


@pytest.mark.parametrize("raw", [bytes(31), bytes(33), bytes(32)],
                         ids=["short", "long", "all_zero"])
def test_from_state_bytes_rejects_a_bad_state(raw):
    with pytest.raises(ValueError):
        Rng.from_state_bytes(raw)


def test_state_bytes_roundtrip():
    r = Rng(5)
    r.next_u64()
    blob = r.state_bytes()
    assert isinstance(blob, bytes) and len(blob) == 32
    clone = Rng.from_state_bytes(blob)
    assert [clone.next_u64() for _ in range(10)] == [r.next_u64() for _ in range(10)]


def test_spawn_decorrelates_from_parent():
    parent = Rng(77)
    child = parent.spawn()
    ps = [parent.next_u64() for _ in range(16)]
    cs = [child.next_u64() for _ in range(16)]
    assert ps != cs
    # spawning is itself deterministic
    p2 = Rng(77)
    assert [p2.spawn().next_u64() for _ in range(1)] == cs[:1]


def test_random_unit_interval():
    r = Rng(3)
    xs = [r.random() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.02


def test_uniform_bounds():
    r = Rng(4)
    xs = r.uniform_array((1000,), -2.5, 1.5)
    assert xs.shape == (1000,)
    assert xs.min() >= -2.5 and xs.max() < 1.5


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 16, 16), (32, 512)])
def test_uniform_array_is_splitmix_keyed_by_one_draw(shape):
    """uniform_array(shape) maps output i of splitmix64(key), key being the
    next u64 of the stream, through random()'s 53-bit transform."""
    r = Rng(22)
    r.next_u64()
    key = Rng.from_state_bytes(r.state_bytes()).next_u64()
    n = int(np.prod(shape))
    lo, hi = -0.75, 1.25
    ref = np.array([
        lo + (hi - lo) * ((z >> 11) * 2.0**-53)
        for z in itertools.islice(splitmix64(key), n)
    ], dtype=np.float64).reshape(shape)
    got = r.uniform_array(shape, lo, hi, dtype=np.float64)
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 16, 16), (2, 0, 4)])
def test_uniform_array_advances_the_stream_by_one_draw(shape):
    a, b = Rng(33), Rng(33)
    a.uniform_array(shape, 0.0, 1.0)
    b.next_u64()
    assert a.state_bytes() == b.state_bytes()


def test_uniform_array_values_in_half_open_range():
    r = Rng(34)
    for lo, hi in ((0.0, 1.0), (-3.0, -1.0), (-0.25, 0.25)):
        xs = r.uniform_array((4096,), lo, hi, dtype=np.float64)
        assert xs.min() >= lo and xs.max() < hi
        assert abs(float(xs.mean()) - (lo + hi) / 2) < 0.03 * (hi - lo)


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_randint_range(n):
    r = Rng(11)
    for _ in range(500):
        assert 0 <= r.randint(n) < n


def test_randint_hits_every_bucket():
    r = Rng(12)
    seen = {r.randint(8) for _ in range(400)}
    assert seen == set(range(8))


def test_randint_full_u64_range_is_one_draw():
    a, b = Rng(13), Rng(13)
    assert a.randint(2**64) == b.next_u64()
    assert a.state_bytes() == b.state_bytes()


@pytest.mark.parametrize("n", [0, -1, 2**64 + 1, 2**65, 2**200])
def test_randint_bound_outside_one_to_2_64_raises(n):
    r = Rng(14)
    before = r.state_bytes()
    with pytest.raises(ValueError, match="2\\*\\*64"):
        r.randint(n)
    assert r.state_bytes() == before


def test_normal_moments():
    r = Rng(6)
    xs = r.normal_array((20_000,), sigma=2.0)
    assert abs(float(xs.mean())) < 0.06
    assert abs(float(xs.std()) - 2.0) < 0.06


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 16, 16)])
def test_normal_array_is_splitmix_keyed_by_one_draw(shape):
    """normal_array(shape) reads outputs 0..2*ceil(n/2)-1 of splitmix64(key),
    key being the next u64 of the stream, and Box-Mullers pairs (2i, 2i+1)
    into values 2i (the cosine) and 2i+1 (the sine)."""
    r = Rng(21)
    r.next_u64()
    key = Rng.from_state_bytes(r.state_bytes()).next_u64()
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    bits = list(itertools.islice(splitmix64(key), 2 * pairs))
    assert _splitmix64_array(key, 2 * pairs).tolist() == bits

    sigma = 0.05
    values = []
    for z1, z2 in zip(bits[0::2], bits[1::2]):
        radius = sigma * math.sqrt(-2.0 * math.log(((z1 >> 11) + 1) * 2.0**-53))
        angle = 2.0 * math.pi * (z2 >> 11) * 2.0**-53
        values += [radius * math.cos(angle), radius * math.sin(angle)]
    ref = np.array(values[:n], dtype=np.float32).reshape(shape)
    got = r.normal_array(shape, sigma=sigma)
    assert got.shape == shape and got.dtype == np.float32
    np.testing.assert_array_max_ulp(got, ref, maxulp=1)


def test_splitmix_array_wraps_at_the_top_of_the_u64_range():
    for key in (0, 2**63, 2**64 - 1):
        assert _splitmix64_array(key, 64).tolist() == list(itertools.islice(splitmix64(key), 64))


@pytest.mark.parametrize("n", [0, 1, 7, 1536])
def test_splitmix_array_gives_one_row_per_key(n):
    """A key vector gives one counter row per key, wrap keys included."""
    keys = [0, 2**63, 2**64 - 1, 42, 0x9E3779B97F4A7C15]
    got = _splitmix64_array(np.array(keys, np.uint64), n)
    assert got.shape == (len(keys), n) and got.dtype == np.uint64
    for k, key in enumerate(keys):
        assert got[k].tolist() == list(itertools.islice(splitmix64(key), n))
        assert _splitmix64_array(key, n).tolist() == got[k].tolist()  # a scalar key: one row


def _frozen_gaussian(keys, n):
    """Box-Muller over _splitmix64_array as plain array arithmetic: each pair
    of outputs gives its cosine value, then its sine value."""
    z = _splitmix64_array(keys, 2 * ((n + 1) // 2))
    radius = np.sqrt(-2.0 * np.log(((z[..., 0::2] >> 11) + 1) * 2.0**-53))
    angle = 2.0 * math.pi * (z[..., 1::2] >> 11) * 2.0**-53
    both = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return both.reshape(np.shape(keys) + (-1,))[..., :n]


@pytest.mark.parametrize("n", [0, 1, 7, 768])
@pytest.mark.parametrize("keys", [0, 2**64 - 1, 0x9E3779B97F4A7C15,
                                  np.array([0, 2**63, 2**64 - 1, 42], np.uint64)],
                         ids=["key_0", "key_top", "key_gamma", "key_vector"])
def test_gaussian_bytes_equal_the_frozen_formula(keys, n):
    """The in-place mixer and Box-Muller give the formula's bytes exactly;
    the augment oracle and the normal_array test cannot see a change here."""
    got, want = _gaussian(keys, n), _frozen_gaussian(keys, n)
    assert got.shape == want.shape == np.shape(keys) + (n,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 16, 16), (2, 3, 32, 32)])
def test_normal_array_advances_the_stream_by_one_draw(shape):
    a, b = Rng(31), Rng(31)
    a.normal_array(shape, sigma=1.0)
    b.next_u64()
    assert a.state_bytes() == b.state_bytes()


@pytest.mark.parametrize("method", ["uniform_array", "normal_array"])
@pytest.mark.parametrize("shape", [(2**32, 2**32), (-2, -3)], ids=["wraps_int64", "negative"])
def test_array_draw_refuses_a_shape_before_its_key(method, shape):
    """A count of 2**64 once wrapped to 0 values, and (-2, -3) drew 6; both
    are refused naming the shape, and the stream stays where it was."""
    r = Rng(35)
    before = r.state_bytes()
    args = (0.0, 1.0) if method == "uniform_array" else (1.0,)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        getattr(r, method)(shape, *args)
    assert r.state_bytes() == before


def test_successive_normal_arrays_differ():
    r = Rng(32)
    first, second = r.normal_array((3, 8, 8), 1.0), r.normal_array((3, 8, 8), 1.0)
    assert not np.array_equal(first, second)


def test_permutation_is_a_permutation():
    r = Rng(8)
    p = r.permutation(50)
    assert sorted(p.tolist()) == list(range(50))


def test_shuffle_preserves_multiset():
    r = Rng(10)
    xs = list(range(20)) + [3, 3, 7]
    ys = list(xs)
    r.shuffle(ys)
    assert sorted(ys) == sorted(xs)


def test_uniform_array_dtype():
    r = Rng(2)
    assert r.uniform_array((3,), 0, 1, dtype=np.float64).dtype == np.float64
    assert r.uniform_array((3,), 0, 1, dtype=np.float32).dtype == np.float32
