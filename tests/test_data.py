"""Data ingestion: PPM files, LCAF feature files, the synthetic glyph
dataset, augmentation, and epoch batching."""

from types import SimpleNamespace

import numpy as np
import pytest

import lcanet.data as D
from lcanet import (
    AugmentConfig,
    ConfigError,
    DataError,
    Dataset,
    Rng,
    SampleBatch,
    augment,
    batches,
    lca_forward,
    load_feature_file,
    load_image_dir,
    read_ppm,
    synth_glyphs,
    write_feature_file,
    write_ppm,
)
from lcanet.tensor import ContractError, Tensor


# ---------------------------------------------------------------------------
# PPM
# ---------------------------------------------------------------------------


def test_ppm_roundtrip_is_bit_exact_on_255ths(tmp_path):
    rng = Rng(0)
    img = np.round(rng.uniform_array((5, 7, 3), 0, 1, dtype=np.float32) * 255)
    img = img / np.float32(255)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, img)


def test_ppm_maxval_normalization(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n2 1\n100\n" + bytes([100, 0, 50, 25, 100, 0]))
    img = read_ppm(path)
    np.testing.assert_allclose(img, [[[1.0, 0.0, 0.5], [0.25, 1.0, 0.0]]])


def test_ppm_full_red_pixel(tmp_path):
    path = tmp_path / "r.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    np.testing.assert_array_equal(read_ppm(path), [[[1.0, 0.0, 0.0]]])


def test_ppm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # of course\n# a comment line\n1 1 # w h\n255\n" + bytes(3))
    assert read_ppm(path).shape == (1, 1, 3)


@pytest.mark.parametrize(
    "blob",
    [
        b"P5\n1 1\n255\n\x00",                      # grayscale, not P6
        b"P6\n1 1\n255\n\x00\x00",                  # short payload
        b"P6\n1 1\n70000\n" + bytes(3),             # maxval out of range
        b"P6\n1\n255\n" + bytes(3),                 # header missing a field
        b"P6\nx 1\n255\n" + bytes(3),               # non-numeric dimension
        b"P6\n0 1\n255\n",                          # zero extent
    ],
)
def test_ppm_malformed_inputs(tmp_path, blob):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read_ppm(path)


def test_write_ppm_clips_and_quantizes(tmp_path):
    path = tmp_path / "q.ppm"
    write_ppm(path, np.array([[[1.5, -0.25, 0.5]]], dtype=np.float32))
    np.testing.assert_allclose(read_ppm(path), [[[1.0, 0.0, 128 / 255]]])


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------


def test_resize_same_size_is_identity():
    img = Rng(1).uniform_array((16, 16, 3), 0, 1, dtype=np.float32)
    out = D._resize_bilinear(img, 16, 16)
    assert out.tobytes() == img.tobytes()


def test_resize_constant_image_stays_constant():
    img = np.full((8, 10, 3), 0.375, dtype=np.float32)
    out = D._resize_bilinear(img, 16, 16)
    np.testing.assert_allclose(out, 0.375, atol=1e-7)


def test_resize_downscale_averages():
    # 2x2 blocks of a checkerboard average to 0.5 at half scale
    img = np.zeros((4, 4, 3), dtype=np.float32)
    img[::2, 1::2] = 1.0
    img[1::2, ::2] = 1.0
    out = D._resize_bilinear(img, 2, 2)
    np.testing.assert_allclose(out, 0.5, atol=1e-7)


# ---------------------------------------------------------------------------
# image directory loading
# ---------------------------------------------------------------------------


def _write_class_dir(root, name, imgs):
    d = root / name
    d.mkdir(parents=True)
    for i, img in enumerate(imgs):
        write_ppm(d / f"img_{i:03d}.ppm", img)


def test_load_image_dir_sorted_class_order(tmp_path):
    zeros = np.zeros((16, 16, 3), dtype=np.float32)
    ones = np.ones((16, 16, 3), dtype=np.float32)
    _write_class_dir(tmp_path, "zebra", [ones])
    _write_class_dir(tmp_path, "aardvark", [zeros])
    ds = load_image_dir(tmp_path)
    assert ds.class_names == ["aardvark", "zebra"]
    assert ds.labels.tolist() == [0, 1]
    assert ds.inputs.shape == (2, 3, 16, 16)
    np.testing.assert_array_equal(ds.inputs[0], 0.0)
    np.testing.assert_array_equal(ds.inputs[1], 1.0)


def test_load_image_dir_resizes_to_target(tmp_path):
    big = np.full((32, 24, 3), 0.5, dtype=np.float32)
    _write_class_dir(tmp_path, "a", [big])
    _write_class_dir(tmp_path, "b", [big])
    ds = load_image_dir(tmp_path, size=(16, 16))
    assert ds.inputs.shape == (2, 3, 16, 16)


def test_load_image_dir_missing_root(tmp_path):
    with pytest.raises(DataError):
        load_image_dir(tmp_path / "nope")


def test_load_image_dir_no_classes(tmp_path):
    with pytest.raises(DataError):
        load_image_dir(tmp_path)


def test_load_image_dir_empty_class(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError):
        load_image_dir(tmp_path)


# ---------------------------------------------------------------------------
# LCAF feature files
# ---------------------------------------------------------------------------


def test_lcaf_roundtrip(tmp_path):
    rng = Rng(2)
    feats = rng.uniform_array((3, 2, 4, 5), -1, 1, dtype=np.float32)
    labels = [0, 2, 1]
    path = tmp_path / "f.lcaf"
    write_feature_file(path, feats, labels)
    ds = load_feature_file(path)
    assert ds.mode == "feature"
    np.testing.assert_array_equal(ds.inputs, feats)
    assert ds.labels.tolist() == labels


def test_lcaf_fixture_matches_head_worked_example(tmp_path):
    """A 1-channel [[1,2],[3,4]] feature file runs the head to 2.5."""
    path = tmp_path / "w.lcaf"
    write_feature_file(
        path, np.array([[[[1, 2], [3, 4]]]], dtype=np.float32), [0]
    )
    ds = load_feature_file(path)
    fc_weight = Tensor(np.eye(1, dtype=np.float32))
    fc_bias = Tensor(np.zeros(1, dtype=np.float32))
    out = lca_forward(Tensor(ds.inputs), fc_weight, fc_bias)
    np.testing.assert_allclose(out.data, [[2.5]], atol=1e-6)


def test_lcaf_zero_length_payload(tmp_path):
    path = tmp_path / "z.lcaf"
    path.write_bytes(b"LCAF")
    with pytest.raises(DataError):
        load_feature_file(path)


def test_lcaf_bad_magic(tmp_path):
    path = tmp_path / "m.lcaf"
    path.write_bytes(b"WHAT" + bytes(20))
    with pytest.raises(DataError):
        load_feature_file(path)


def test_lcaf_size_mismatch(tmp_path):
    rng = Rng(3)
    path = tmp_path / "s.lcaf"
    write_feature_file(path, rng.uniform_array((2, 1, 2, 2), 0, 1, dtype=np.float32),
                       [0, 1])
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # drop one label
    with pytest.raises(DataError):
        load_feature_file(path)


def test_lcaf_short_read(tmp_path, monkeypatch):
    """A file that yields fewer bytes than its size announced is rejected."""
    rng = Rng(4)
    path = tmp_path / "r.lcaf"
    write_feature_file(path, rng.uniform_array((2, 1, 2, 2), 0, 1, dtype=np.float32),
                       [0, 1])
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-6])
    monkeypatch.setattr(D.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(DataError):
        load_feature_file(path)


# ---------------------------------------------------------------------------
# synthetic glyph dataset
# ---------------------------------------------------------------------------


class TestSynthGlyphs:
    def test_counts(self):
        tr, te = synth_glyphs(8, 64, 16, seed=42)
        assert len(tr) == 512 and len(te) == 128
        assert tr.inputs.shape == (512, 3, 16, 16)

    def test_deterministic(self):
        a_tr, a_te = synth_glyphs(4, 8, 2, seed=9)
        b_tr, b_te = synth_glyphs(4, 8, 2, seed=9)
        np.testing.assert_array_equal(a_tr.inputs, b_tr.inputs)
        np.testing.assert_array_equal(a_te.inputs, b_te.inputs)

    def test_seed_changes_data(self):
        a, _ = synth_glyphs(4, 8, 2, seed=1)
        b, _ = synth_glyphs(4, 8, 2, seed=2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_splits_disjoint_by_pixels(self):
        tr, te = synth_glyphs(6, 16, 8, seed=5)
        train_hashes = {img.tobytes() for img in tr.inputs}
        test_hashes = {img.tobytes() for img in te.inputs}
        assert len(train_hashes) == len(tr)
        assert len(test_hashes) == len(te)
        assert not (train_hashes & test_hashes)

    def test_class_glyphs_well_separated(self):
        rng = Rng(42)
        classes, distractors = D.make_glyphs(8, rng)
        assert len(set(classes)) == 8
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert D._hamming(a, b) >= 6

    def test_labels_balanced_and_named(self):
        tr, te = synth_glyphs(5, 7, 3, seed=0)
        assert np.bincount(tr.labels).tolist() == [7] * 5
        assert np.bincount(te.labels).tolist() == [3] * 5
        assert tr.class_names == [f"class_{i:02d}" for i in range(5)]

    def test_pixels_in_unit_range_and_quantized(self):
        tr, _ = synth_glyphs(3, 4, 0, seed=3)
        assert tr.inputs.min() >= 0.0 and tr.inputs.max() <= 1.0
        # every value sits on the 1/255 grid so PPM export is lossless
        np.testing.assert_array_equal(
            tr.inputs, np.round(tr.inputs * 255) / np.float32(255)
        )

    def test_class_count_bounds(self):
        with pytest.raises(ConfigError):
            synth_glyphs(17, 1, 0, seed=0)
        with pytest.raises(ConfigError):
            synth_glyphs(1, 1, 0, seed=0)

    def test_ppm_roundtrip_of_synth_images_is_lossless(self, tmp_path):
        tr, _ = synth_glyphs(2, 2, 0, seed=11)
        path = tmp_path / "s.ppm"
        write_ppm(path, tr.inputs[0].transpose(1, 2, 0))
        np.testing.assert_array_equal(
            read_ppm(path).transpose(2, 0, 1), tr.inputs[0]
        )


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def image_batch(n=4, seed=0):
    rng = Rng(seed)
    return SampleBatch(
        rng.uniform_array((n, 3, 16, 16), 0.2, 0.8, dtype=np.float32),
        np.arange(n, dtype=np.int64) % 2,
        "image",
    )


def test_augment_identity_returns_same_object():
    b = image_batch()
    out = augment(b, AugmentConfig(0, 0.0, 0.0, False), Rng(0))
    assert out is b


def test_augment_rejects_feature_batches():
    b = SampleBatch(np.zeros((1, 4, 2, 2), np.float32), np.zeros(1, np.int64),
                    "feature")
    with pytest.raises(ContractError):
        augment(b, AugmentConfig(1, 0.0, 0.0, False), Rng(0))


def test_augment_clamps_to_unit_interval():
    b = image_batch()
    out = augment(b, AugmentConfig(0, 0.5, 0.3, False), Rng(1))
    assert out.inputs.min() >= 0.0 and out.inputs.max() <= 1.0


def test_augment_preserves_labels_and_shape():
    b = image_batch()
    out = augment(b, AugmentConfig(2, 0.1, 0.05, True), Rng(2))
    assert out.inputs.shape == b.inputs.shape
    np.testing.assert_array_equal(out.labels, b.labels)


def test_augment_is_deterministic_given_rng_state():
    b = image_batch()
    cfg = AugmentConfig(2, 0.1, 0.02, True)
    a = augment(b, cfg, Rng(5)).inputs
    c = augment(b, cfg, Rng(5)).inputs
    np.testing.assert_array_equal(a, c)


def test_translate_moves_content():
    img = np.zeros((1, 3, 16, 16), dtype=np.float32)
    img[0, :, 8, 8] = 1.0
    b = SampleBatch(img, np.zeros(1, np.int64), "image")
    out = augment(b, AugmentConfig(3, 0.0, 0.0, False), Rng(3))
    assert out.inputs.sum() == 3.0  # zero padding never duplicates content
    r, c = np.argwhere(out.inputs[0, 0])[0]
    assert abs(int(r) - 8) <= 3 and abs(int(c) - 8) <= 3


def test_translate_keeps_centered_glyph_in_frame():
    """The generator's margin guarantees ±2px shifts cannot clip the glyph."""
    tr, _ = synth_glyphs(2, 4, 0, seed=7)
    b = SampleBatch(tr.inputs.copy(), tr.labels, "image")
    out = augment(b, AugmentConfig(2, 0.0, 0.0, False), Rng(8))
    # brightness of every image is preserved up to the zero-padded border,
    # which can only remove background, never glyph pixels, given the margin;
    # cheap proxy: the brightest pixel (class glyph) survives translation
    for before, after in zip(b.inputs, out.inputs):
        assert after.max() == before.max()


def _shift_reference(img, dr, dc):
    """Zero-padded translation, pixel by pixel."""
    out = np.zeros_like(img)
    _, h, w = img.shape
    for r in range(h):
        for c in range(w):
            if 0 <= r - dr < h and 0 <= c - dc < w:
                out[:, r, c] = img[:, r - dr, c - dc]
    return out


def test_shift_matches_pixelwise_reference_within_the_image():
    img = Rng(4).uniform_array((3, 5, 4), 0, 1, dtype=np.float32)
    for dr in range(-5, 6):
        for dc in range(-4, 5):
            got = D._shift(img, dr, dc)
            assert got.tobytes() == _shift_reference(img, dr, dc).tobytes(), (dr, dc)


@pytest.mark.parametrize("dr,dc", [(17, 0), (-17, 0), (0, 17), (0, -17),
                                   (20, 3), (-20, -3), (2, 20), (-2, -20), (20, -20)])
def test_shift_beyond_the_image_is_all_zero(dr, dc):
    """A shift wider than the image moves every pixel out of frame."""
    img = Rng(5).uniform_array((3, 16, 16), 0.1, 1, dtype=np.float32)
    out = D._shift(img, dr, dc)
    assert out.shape == img.shape and out.dtype == img.dtype
    assert not out.any()


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(-1, 0.0, 0.0, False)
    with pytest.raises(ValueError):
        AugmentConfig(0, 1.0, 0.0, False)
    with pytest.raises(ValueError):
        AugmentConfig(0, 0.0, -0.5, False)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def small_dataset(n=10):
    return Dataset(
        inputs=np.arange(n * 3 * 2 * 2, dtype=np.float32).reshape(n, 3, 2, 2),
        labels=np.arange(n, dtype=np.int64) % 3,
        mode="image",
    )


def test_batch_sizes_with_partial_tail():
    sizes = [len(b.labels) for b in batches(small_dataset(10), 4)]
    assert sizes == [4, 4, 2]


def test_epoch_covers_label_multiset():
    ds = small_dataset(10)
    seen = np.concatenate([b.labels for b in batches(ds, 3, rng=Rng(0))])
    assert sorted(seen.tolist()) == sorted(ds.labels.tolist())


def test_unshuffled_order_is_dataset_order():
    ds = small_dataset(6)
    got = np.concatenate([b.inputs for b in batches(ds, 4)])
    np.testing.assert_array_equal(got, ds.inputs)


def test_shuffle_is_seeded():
    ds = small_dataset(8)
    a = np.concatenate([b.labels for b in batches(ds, 3, rng=Rng(4))])
    b = np.concatenate([b.labels for b in batches(ds, 3, rng=Rng(4))])
    np.testing.assert_array_equal(a, b)


def test_batch_size_validated():
    with pytest.raises(ContractError):
        list(batches(small_dataset(4), 0))


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3, 4, 4), np.float32), np.zeros(3, np.int64), "image")
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3, 4, 4), np.float32), np.zeros(2, np.int64), "audio")
