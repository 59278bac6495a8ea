"""Local-concepts accumulation: counting oracle, worked example, invariances.

The reference implementation in this file (`brute_concepts`) enumerates
every window of every kernel with plain Python loops and numpy slicing —
deliberately sharing no code with the library path it checks.
"""

import numpy as np
import pytest

import lcanet.tensor as T
from lcanet import (
    BackboneConfig,
    EmptyKernelError,
    LcaConfig,
    Rng,
    build_model,
    concept_count,
    concept_vectors,
    enumerate_kernels,
    lca_forward,
)
from lcanet.gradcheck import grad_check
from lcanet.tensor import ShapeError, Tensor


def brute_concepts(fm: np.ndarray, include_one_by_k: bool = True) -> np.ndarray:
    """Every local-concept vector of one [C,H,W] map, by explicit loops."""
    c, h, w = fm.shape
    out = []
    for kh in range(1, h + 1):
        for kw in range(1, w + 1):
            if (kh, kw) == (1, 1):
                continue
            if not include_one_by_k and (kh < 2 or kw < 2):
                continue
            for i in range(h - kh + 1):
                for j in range(w - kw + 1):
                    out.append(fm[:, i : i + kh, j : j + kw].mean(axis=(1, 2)))
    return np.array(out)  # [P, C]


# ---------------------------------------------------------------------------
# kernel enumeration and counting
# ---------------------------------------------------------------------------


def test_kernels_2x2():
    assert enumerate_kernels(2, 2) == [(1, 2), (2, 1), (2, 2)]


def test_kernels_3x3_count():
    assert len(enumerate_kernels(3, 3)) == 8


def test_kernels_single_row():
    assert enumerate_kernels(1, 4) == [(1, 2), (1, 3), (1, 4)]


def test_kernels_ordering_is_kh_major():
    ks = enumerate_kernels(3, 2)
    assert ks == sorted(ks)


def test_kernels_1x1_map_has_none():
    with pytest.raises(EmptyKernelError):
        enumerate_kernels(1, 1)


def test_kernels_square_only_mode():
    assert enumerate_kernels(3, 3, include_one_by_k=False) == [
        (2, 2), (2, 3), (3, 2), (3, 3),
    ]


def test_kernels_square_only_mode_on_single_row_is_empty():
    with pytest.raises(EmptyKernelError):
        enumerate_kernels(1, 4, include_one_by_k=False)


@pytest.mark.parametrize("hw,expected", [((2, 2), 5), ((3, 3), 27), ((8, 8), 1232)])
def test_concept_count_spot_values(hw, expected):
    assert concept_count(*hw) == expected


def test_concept_count_matches_enumeration_everywhere():
    """Brute-force window enumeration over every map size up to 8x8: the
    count, and every concept vector's value in order."""
    rng = Rng(31)
    for h in range(1, 9):
        for w in range(1, 9):
            if h == w == 1:
                continue
            fm = rng.uniform_array((1, h, w), -1, 1, dtype=np.float64)
            for include in (True, False):
                if not include and (h < 2 or w < 2):
                    continue
                ref = brute_concepts(fm, include)
                got = concept_count(h, w, include)
                assert got == len(ref), (h, w, include)
                vecs = concept_vectors(fm[None], include)[0]
                np.testing.assert_allclose(vecs, ref, atol=1e-13, err_msg=f"{(h, w, include)}")


def test_concept_count_closed_form():
    # with 1xk kernels included, the count telescopes to
    # [H(H+1)/2][W(W+1)/2] - H*W
    for h in range(1, 9):
        for w in range(1, 9):
            if h == w == 1:
                continue
            formula = (h * (h + 1) // 2) * (w * (w + 1) // 2) - h * w
            assert concept_count(h, w) == formula


def test_concept_vectors_materializes_the_count():
    rng = Rng(77)
    for h, w in [(2, 2), (3, 5), (8, 8)]:
        fm = rng.uniform_array((2, 3, h, w), -1, 1, dtype=np.float64)
        vecs = concept_vectors(fm)
        assert vecs.shape == (2, concept_count(h, w), 3)


def test_concept_vectors_values_match_brute_force():
    rng = Rng(78)
    fm = rng.uniform_array((1, 2, 4, 3), -1, 1, dtype=np.float64)
    got = concept_vectors(fm)[0]
    ref = brute_concepts(fm[0])
    # same multiset of vectors, same deterministic order
    np.testing.assert_allclose(got, ref, atol=1e-13)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def identity_params(c):
    """(fc_weight, fc_bias) of an identity embedding on C channels."""
    return Tensor(np.eye(c, dtype=np.float64)), Tensor(np.zeros(c, dtype=np.float64))


def test_worked_example_2x2():
    """[[1,2],[3,4]]: windows average to {1.5, 3.5, 2, 3, 2.5}, mean 2.5."""
    fm = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    out = lca_forward(fm, *identity_params(1))
    assert out.shape == (1, 1)
    np.testing.assert_allclose(out.data, [[2.5]], atol=1e-6)


def test_constant_map_passes_through():
    fm = Tensor(np.full((2, 3, 4, 4), 0.7))
    out = lca_forward(fm, *identity_params(3))
    np.testing.assert_allclose(out.data, np.full((2, 3), 0.7), atol=1e-12)


def test_zero_weights_zero_output():
    rng = Rng(9)
    fm = Tensor(rng.uniform_array((1, 2, 3, 3), -1, 1, dtype=np.float64))
    out = lca_forward(fm, Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, np.zeros((1, 4)))


def test_forward_matches_brute_force_reference():
    """General-position oracle: embed+relu+mean over the brute-force list."""
    rng = Rng(10)
    c, d = 3, 5
    fm = rng.uniform_array((2, c, 4, 6), -1, 1, dtype=np.float64)
    w = rng.uniform_array((d, c), -1, 1, dtype=np.float64)
    bias = rng.uniform_array((d,), -0.5, 0.5, dtype=np.float64)

    for include in (True, False):
        got = lca_forward(Tensor(fm), Tensor(w), Tensor(bias), include).data
        for n in range(2):
            concepts = brute_concepts(fm[n], include)  # [P, C]
            ref = np.maximum(concepts @ w.T + bias, 0.0).mean(axis=0)
            np.testing.assert_allclose(got[n], ref, atol=1e-12, err_msg=f"include={include}")


def test_output_shape_is_b_by_d_for_any_spatial_size():
    rng = Rng(11)
    for h, w in [(1, 2), (2, 1), (2, 2), (5, 3), (8, 8)]:
        fm = Tensor(rng.uniform_array((3, 2, h, w), -1, 1, dtype=np.float64))
        out = lca_forward(fm, *identity_params(2))
        assert out.shape == (3, 2), (h, w)


def test_channel_mismatch_rejected():
    fm = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError):
        lca_forward(fm, *identity_params(2))


def test_1x1_map_rejected():
    fm = Tensor(np.zeros((1, 1, 1, 1)))
    with pytest.raises(EmptyKernelError):
        lca_forward(fm, *identity_params(1))


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_permutation_invariance_of_aggregation():
    """Averaging the embedded concepts in any order gives the same output."""
    rng = Rng(12)
    c, d = 2, 3
    fm = rng.uniform_array((1, c, 3, 4), -1, 1, dtype=np.float64)
    w = rng.uniform_array((d, c), -1, 1, dtype=np.float64)
    got = lca_forward(Tensor(fm), Tensor(w), Tensor(np.zeros(d))).data[0]

    concepts = brute_concepts(fm[0])
    embedded = np.maximum(concepts @ w.T, 0.0)
    for seed in range(5):
        perm = Rng(seed).permutation(len(embedded))
        np.testing.assert_allclose(embedded[perm].mean(axis=0), got, atol=1e-12)


def test_positive_homogeneity_with_zero_bias():
    rng = Rng(13)
    c, d = 3, 4
    fm = rng.uniform_array((2, c, 4, 4), -1, 1, dtype=np.float64)
    w = rng.uniform_array((d, c), -1, 1, dtype=np.float64)
    params = (Tensor(w), Tensor(np.zeros(d)))
    base = lca_forward(Tensor(fm), *params).data
    for alpha in (0.5, 2.0, 7.25):
        scaled = lca_forward(Tensor(alpha * fm), *params).data
        np.testing.assert_allclose(scaled, alpha * base, atol=1e-10)


def test_gradients_flow_through_the_head():
    rng = Rng(14)
    c, d = 2, 3
    fm = Tensor(rng.uniform_array((1, c, 3, 3), -1, 1, dtype=np.float64))
    w = Tensor(rng.uniform_array((d, c), -1, 1, dtype=np.float64))
    bias = Tensor(rng.uniform_array((d,), -0.5, 0.5, dtype=np.float64))
    probe = Tensor(rng.uniform_array((d, 1), -1, 1, dtype=np.float64))

    def f(fm_, w_, b_):
        out = lca_forward(fm_, w_, b_)
        return T.tensor_sum(T.matmul(out, probe))

    assert grad_check(f, [fm, w, bias]) < 1e-5


# ---------------------------------------------------------------------------
# parameter init
# ---------------------------------------------------------------------------


class TestParamInit:
    """The head's weights as ``build_model`` draws them on a C-channel map."""

    @staticmethod
    def head(c, d, seed):
        m = build_model(BackboneConfig("external_features", (c,), (2, 2)),
                        LcaConfig(embed_dim=d), 2, rng=Rng(seed))
        return m.param("fc_weight"), m.param("fc_bias")

    def test_glorot_bound(self):
        w, _ = self.head(32, 32, 0)
        s = np.sqrt(6.0 / 64.0)
        assert abs(s - 0.3062) < 5e-5  # formula spot value
        assert w.shape == (32, 32)
        assert np.abs(w.data).max() <= s

    def test_bias_exactly_zero(self):
        w, b = self.head(8, 4, 1)
        assert w.shape == (4, 8) and b.shape == (4,)
        assert not b.data.any()

    def test_deterministic_given_seed(self):
        a, _ = self.head(8, 4, 2)
        b, _ = self.head(8, 4, 2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_weights_fill_the_interval(self):
        w, _ = self.head(32, 32, 3)
        s = np.sqrt(6.0 / 64.0)
        assert np.abs(w.data).max() > 0.9 * s


def test_config_validation():
    """A zero input width is the backbone's to reject; a zero output width the head's."""
    with pytest.raises(ValueError):
        BackboneConfig("external_features", (0,), (2, 2))
    with pytest.raises(ValueError):
        LcaConfig(embed_dim=0)
