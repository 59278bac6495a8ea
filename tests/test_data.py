"""Data ingestion: PPM files, LCAF feature files, the synthetic glyph
dataset, augmentation, and epoch batching."""

import errno
import itertools
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
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
        b"P6\n1 1",                                 # header cut short
        b"P6\n1 1\n15\n" + bytes([200, 0, 15]),      # a sample above maxval
    ],
)
def test_ppm_malformed_inputs(tmp_path, blob):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        read_ppm(path)


@pytest.mark.parametrize("length", [0, 7, 8, 9, 16, 17, 100])
@pytest.mark.parametrize("size, most", [(8, 1 << 24), (100, 8)], ids=["first-8", "at-most-8"])
def test_read_bytes_returns_the_whole_file_whatever_the_first_read(tmp_path, monkeypatch,
                                                                   length, size, most):
    """A full read is followed by more, and no read asks for more than
    ``_MAX_READ`` bytes (a read(2) of 2 GiB or more returns less)."""
    path = tmp_path / "f.ppm"
    path.write_bytes(bytes(range(length)))
    asked, read = [], os.read
    monkeypatch.setattr(D, "_MAX_READ", most)
    monkeypatch.setattr(os, "read", lambda fd, n: asked.append(n) or read(fd, n))
    assert D._read_bytes(path, size) == bytes(range(length))
    assert max(asked) <= most


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


def _per_file_loader(root, size):
    """The loader as a loop over files: read_ppm, _resize_bilinear, transpose, stack."""
    class_names = sorted(d.name for d in Path(root).iterdir() if d.is_dir())
    images, labels = [], []
    for idx, name in enumerate(class_names):
        for f in sorted((Path(root) / name).glob("*.ppm")):
            images.append(D._resize_bilinear(read_ppm(f), *size).transpose(2, 0, 1))
            labels.append(idx)
    return np.ascontiguousarray(np.stack(images), dtype=np.float32), labels, class_names


def _mixed_tree(root):
    """Three classes of 16x16 and 5x7 images, maxvals 255 and 15, header
    comments and CR, LF and tab between the header fields."""
    rng = Rng(8)
    headers = [b"P6\n%d %d\n%d\n", b"P6\r%d\t%d # w h\r\n%d\n",
               b"P6 # magic\n#full line\n%d\r\n%d\t%d\r"]
    k = 0
    for cls in ("beta", "alpha", "gamma"):
        (root / cls).mkdir()
        for i, (h, w) in enumerate([(16, 16), (5, 7), (16, 16), (16, 16), (5, 7)]):
            maxval = (255, 15)[k % 2]
            pixels = rng.uniform_array((h, w, 3), 0, maxval + 1, dtype=np.float64)
            blob = headers[k % 3] % (w, h, maxval) + pixels.astype(np.uint8).tobytes()
            (root / cls / f"img_{i}.ppm").write_bytes(blob)
            k += 1


@pytest.mark.parametrize("size", [(16, 16), (5, 7), (9, 4)])
def test_load_image_dir_bytes_equal_the_per_file_loop(tmp_path, size):
    _mixed_tree(tmp_path)
    inputs, labels, class_names = _per_file_loader(tmp_path, size)
    ds = load_image_dir(tmp_path, size)
    assert ds.inputs.dtype == np.float32 and ds.inputs.flags.c_contiguous
    assert ds.inputs.shape == inputs.shape and ds.inputs.tobytes() == inputs.tobytes()
    assert ds.labels.tolist() == labels
    assert ds.class_names == class_names == ["alpha", "beta", "gamma"]


def test_load_image_dir_names_the_malformed_file_in_the_middle(tmp_path):
    _mixed_tree(tmp_path)
    bad = tmp_path / "beta" / "img_2.ppm"
    bad.write_bytes(b"P6\n1 1\n15\n" + bytes([200, 0, 15]))
    with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: PPM sample exceeds maxval 15$"):
        load_image_dir(tmp_path)
    with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: PPM sample exceeds maxval 15$"):
        read_ppm(bad)


def _ppm(rng, h, w, maxval=255, header=b"P6\n%d %d\n%d\n", tail=b""):
    pixels = rng.uniform_array((h, w, 3), 0, maxval + 1, dtype=np.float64).astype(np.uint8)
    return header % (w, h, maxval) + pixels.tobytes() + tail


def _shared_header_tree(root):
    """``_mixed_tree`` and, sorted first, a class whose files share headers:
    160x160 images larger than the first read, first and after small ones;
    maxval-255 images with one plain header, one with bytes after its
    payload; two maxval-15 images between them; and two with a comment in
    the header."""
    _mixed_tree(root)
    rng = Rng(9)
    comment = b"P6 # shelf\n%d %d\n%d\n"
    blobs = [_ppm(rng, 160, 160), _ppm(rng, 160, 160), _ppm(rng, 16, 16),
             _ppm(rng, 16, 16, tail=b"\n# after"), _ppm(rng, 16, 16, 15), _ppm(rng, 16, 16, 15),
             _ppm(rng, 16, 16), _ppm(rng, 16, 16, header=comment),
             _ppm(rng, 16, 16, header=comment), _ppm(rng, 160, 160), _ppm(rng, 5, 7),
             _ppm(rng, 16, 16)]
    assert len(blobs[0]) > 1 << 16
    (root / "aardvark").mkdir()
    for i, blob in enumerate(blobs):
        (root / "aardvark" / f"img_{i:02d}.ppm").write_bytes(blob)


@pytest.mark.parametrize("size", [(16, 16), (5, 7), (160, 160)])
def test_load_image_dir_shared_headers_equal_the_per_file_loop(tmp_path, size):
    _shared_header_tree(tmp_path)
    inputs, labels, class_names = _per_file_loader(tmp_path, size)
    ds = load_image_dir(tmp_path, size)
    assert ds.inputs.shape == inputs.shape and ds.inputs.tobytes() == inputs.tobytes()
    assert ds.labels.tolist() == labels and ds.class_names == class_names


def test_load_image_dir_parses_a_shared_header_once(tmp_path, monkeypatch):
    rng = Rng(10)
    for cls in ("a", "b"):
        (tmp_path / cls).mkdir()
        for i in range(3):
            (tmp_path / cls / f"img_{i}.ppm").write_bytes(_ppm(rng, 16, 16))
    parsed, decode = [], D._decode_ppm
    monkeypatch.setattr(D, "_decode_ppm", lambda blob, p: parsed.append(p) or decode(blob, p))
    ds = load_image_dir(tmp_path)
    assert parsed == [str(tmp_path / "a" / "img_0.ppm")]
    assert ds.inputs.tobytes() == _per_file_loader(tmp_path, (16, 16))[0].tobytes()


_SHORT = ("aardvark/img_03.ppm", b"P6\n16 16\n255\n" + bytes(767),
          "PPM payload is 767 bytes, need 768")
_ABOVE = ("beta/img_1.ppm", b"P6\n1 1\n15\n" + bytes([200, 0, 15]),
          "PPM sample exceeds maxval 15")
_SHORT_LATER = ("gamma/img_2.ppm", b"P6\r16\t16 # w h\r\n255\n" + bytes(100),
                "PPM payload is 100 bytes, need 768")


@pytest.mark.parametrize("bad", [[_SHORT], [_SHORT, _ABOVE], [_ABOVE, _SHORT_LATER],
                                 [_SHORT_LATER]], ids=["short", "short-then-above",
                                                       "above-then-short", "short-later"])
def test_load_image_dir_names_the_first_bad_file(tmp_path, bad):
    """A payload one byte short under its predecessor's exact header is
    refused as ``read_ppm`` refuses it, and of several bad files the first
    in sorted order is named."""
    _shared_header_tree(tmp_path)
    for name, blob, _ in bad:
        (tmp_path / name).write_bytes(blob)
    first = tmp_path / bad[0][0]
    message = f"^{re.escape(str(first))}: {bad[0][2]}$"
    with pytest.raises(DataError, match=message):
        load_image_dir(tmp_path)
    with pytest.raises(DataError, match=message):
        read_ppm(first)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_image_dir_refuses_a_fifo_without_waiting_for_a_writer(tmp_path):
    _mixed_tree(tmp_path)
    fifo = tmp_path / "alpha" / "img_9.ppm"
    os.mkfifo(fifo)
    with pytest.raises(DataError, match=f"^{re.escape(str(fifo))}: truncated PPM header$"):
        load_image_dir(tmp_path)


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
    np.testing.assert_array_equal(ds.inputs[:], feats)
    assert ds.labels.tolist() == labels


def test_lcaf_maps_are_read_from_the_file_on_demand(tmp_path):
    """``inputs`` is a ``FeatureMaps``, not an array: each index reads a
    fresh float32 array, and nothing reads the file as a sequence."""
    path = tmp_path / "f.lcaf"
    write_feature_file(path, np.ones((3, 2, 4, 5), np.float32), [0, 1, 0])
    ds = load_feature_file(path)
    maps = ds.inputs
    assert type(maps) is D.FeatureMaps and len(maps) == len(ds) == 3
    assert (maps.shape, maps.ndim, maps.dtype) == ((3, 2, 4, 5), 4, np.float32)
    batch = maps[:2]
    assert type(batch) is np.ndarray and batch.dtype == np.float32 and batch.flags.writeable
    batch[:] = 7
    np.testing.assert_array_equal(maps[:2], 1.0)
    with pytest.raises(TypeError):
        np.asarray(maps)
    assert ds.labels.flags.writeable and ds.labels.dtype == np.int64


def test_lcaf_maps_index_by_int_slice_and_int_array(tmp_path):
    feats = np.random.default_rng(1).standard_normal((7, 2, 3, 4), dtype=np.float32)
    path = tmp_path / "f.lcaf"
    write_feature_file(path, feats, np.arange(7) % 2)
    maps = load_feature_file(path).inputs
    for i in (0, 3, 6, -1, -7, np.int64(2)):
        np.testing.assert_array_equal(maps[i], feats[i])
    for key in (slice(None), slice(2, 5), slice(1, None, 2), slice(None, None, -1),
                slice(-3, 100), slice(4, 2)):
        np.testing.assert_array_equal(maps[key], feats[key])
    for idx in ([6, 0, 1, 2, 5, 4], [3, 3, 4], [-1, 0, -7], [2], [], [1, 2, 3, 0, 1, 2]):
        arr = np.array(idx, np.int64)
        np.testing.assert_array_equal(maps[arr], feats[arr])
    np.testing.assert_array_equal(maps[np.array([5, 1], np.uint32)], feats[[5, 1]])
    for bad in (7, -8, np.array([0, 7]), np.array([-8])):
        with pytest.raises(IndexError):
            maps[bad]
    for bad in (np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([True, False] * 3 + [True])):
        with pytest.raises(IndexError, match="1-D int index array"):
            maps[bad]


def test_lcaf_maps_read_one_request_per_run_of_consecutive_indices(tmp_path, monkeypatch):
    path = tmp_path / "f.lcaf"
    write_feature_file(path, np.zeros((8, 1, 2, 2), np.float32), np.arange(8) % 2)
    maps = load_feature_file(path).inputs
    offsets = []
    read_at = D._read_at
    monkeypatch.setattr(D, "_read_at", lambda fh, at, out, p: offsets.append((at, len(out)))
                        or read_at(fh, at, out, p))
    maps[np.array([2, 3, 4, 7, 0, 1, 1])]
    assert offsets == [(24 + 16 * 2, 3), (24 + 16 * 7, 1), (24 + 16 * 0, 2), (24 + 16 * 1, 1)]
    offsets.clear()
    maps[:]
    assert offsets == [(24, 8)]


def test_lcaf_read_loops_until_the_batch_is_full(tmp_path, monkeypatch):
    """A read may return fewer bytes than asked; the reader asks again."""
    feats = np.random.default_rng(2).standard_normal((5, 3, 2, 2), dtype=np.float32)
    path = tmp_path / "f.lcaf"
    write_feature_file(path, feats, np.arange(5) % 2)
    ds = load_feature_file(path)
    fh = ds.inputs._fh
    sizes = []

    class Trickle:
        def seek(self, at):
            return fh.seek(at)

        def readinto(self, view):
            sizes.append(len(view))
            return fh.readinto(view[:5])

    monkeypatch.setattr(ds.inputs, "_fh", Trickle())
    np.testing.assert_array_equal(ds.inputs[1:4], feats[1:4])
    assert sizes[0] == 3 * 48 and len(sizes) == -(-3 * 48 // 5)


def test_lcaf_file_cut_short_after_loading_is_refused_naming_it(tmp_path):
    """A batch past the new end of the file is a ``DataError``, not SIGBUS;
    batches before it read as written."""
    feats = np.random.default_rng(3).standard_normal((6, 4, 8, 8), dtype=np.float32)
    path = tmp_path / "cut.lcaf"
    write_feature_file(path, feats, np.arange(6) % 2)
    ds = load_feature_file(path)
    os.truncate(path, 24 + 3 * feats[0].nbytes)
    it = batches(ds, 2)
    np.testing.assert_array_equal(next(it).inputs, feats[:2])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: LCAF file ends at byte "
                                        rf"{24 + 3 * feats[0].nbytes}, short of"):
        next(it)
    with pytest.raises(DataError, match="cut short while in use"):
        ds.inputs[5]  # wholly past the end


def test_lcaf_rewrite_leaves_a_loaded_dataset_its_bytes(tmp_path):
    """The writer renames a new file over the old one, so a dataset that
    maps the old file keeps reading it; a fresh load reads the new one."""
    gen = np.random.default_rng(0)
    old, new = gen.standard_normal((2, 6, 2, 3, 3), dtype=np.float32)
    path = tmp_path / "f.lcaf"
    write_feature_file(path, old, [0, 1, 0, 1, 0, 1])
    loaded = load_feature_file(path)
    write_feature_file(path, new, [1, 0, 1, 0, 1, 0])
    [batch] = batches(loaded, 6)
    np.testing.assert_array_equal(batch.inputs, old)
    assert batch.labels.tolist() == [0, 1, 0, 1, 0, 1]
    fresh = load_feature_file(path)
    np.testing.assert_array_equal(fresh.inputs[:], new)
    assert fresh.labels.tolist() == [1, 0, 1, 0, 1, 0]
    assert os.listdir(tmp_path) == ["f.lcaf"]


def test_lcaf_write_onto_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "f.lcaf").mkdir()
    with pytest.raises(OSError):
        write_feature_file(tmp_path / "f.lcaf", np.ones((1, 1, 1, 1), np.float32), [0])
    assert os.listdir(tmp_path) == ["f.lcaf"]


def test_lcaf_fixture_matches_head_worked_example(tmp_path):
    """A 1-channel [[1,2],[3,4]] feature file runs the head to 2.5."""
    path = tmp_path / "w.lcaf"
    write_feature_file(
        path, np.array([[[[1, 2], [3, 4]]]], dtype=np.float32), [0]
    )
    ds = load_feature_file(path)
    fc_weight = Tensor(np.eye(1, dtype=np.float32))
    fc_bias = Tensor(np.zeros(1, dtype=np.float32))
    out = lca_forward(Tensor(ds.inputs[:]), fc_weight, fc_bias)
    np.testing.assert_allclose(out.data, [[2.5]], atol=1e-6)


@pytest.mark.parametrize("shape", [(2, 0, 3, 3), (2, 4, 0, 3), (2, 4, 3, 0)])
def test_lcaf_empty_map_dimension_rejected(tmp_path, shape):
    """Built with ``struct``: the writer refuses these maps."""
    path = tmp_path / "e.lcaf"
    path.write_bytes(b"LCAF" + struct.pack("<5I", 1, *shape) + struct.pack("<2I", 0, 1))
    with pytest.raises(DataError, match="each must be >= 1"):
        load_feature_file(path)


@pytest.mark.parametrize("shape", [(2, 0, 3, 3), (2, 4, 0, 3), (2, 4, 3, 0), (0, 4, 0, 3)])
def test_lcaf_writer_refuses_an_empty_map_dimension(tmp_path, shape):
    """The reader's refusal, raised by the writer before a temp file opens;
    N = 0 alone stays legal (``test_lcaf_without_samples_loads``)."""
    path = tmp_path / "e.lcaf"
    c, h, w = shape[1:]
    want = rf"^{re.escape(str(path))}: LCAF maps are {c}x{h}x{w} \(C, H, W\); each must be >= 1$"
    with pytest.raises(DataError, match=want):
        write_feature_file(path, np.zeros(shape, dtype=np.float32), [0, 1][: shape[0]])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value, dtype", [(np.nan, np.float32), (np.inf, np.float32),
                                          (-np.inf, np.float32), (1e39, np.float64),
                                          (-1e39, np.float64), (np.nan, np.float64)],
                         ids=["nan", "inf", "-inf", "f64-past-f4", "-f64-past-f4", "f64-nan"])
def test_lcaf_writer_refuses_nan_or_inf_maps_and_leaves_no_file(tmp_path, monkeypatch, value,
                                                                dtype):
    """Checked chunk by chunk after the ``<f4`` conversion, so a float64
    beyond the float32 range is refused too; the message names the first
    bad map across chunks, and neither the file nor ``<path>.tmp`` is left."""
    monkeypatch.setattr(D, "_WRITE_CHUNK", 2 * 4 * 2 * 3 * 3)  # 2 maps a chunk
    feats = np.random.default_rng(5).standard_normal((7, 2, 3, 3)).astype(dtype)
    feats[4, 1, 2, 0] = value
    feats[6, 0, 0, 0] = value
    path = tmp_path / "f.lcaf"
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: map 4 holds NaN or inf"):
        write_feature_file(path, feats, np.arange(7) % 2)
    assert os.listdir(tmp_path) == []


def test_lcaf_writer_keeps_the_float32_extremes(tmp_path):
    feats = np.array([np.finfo(np.float32).max, np.finfo(np.float32).min, np.float32(1e-45),
                      0.0]).reshape(4, 1, 1, 1)
    path = tmp_path / "f.lcaf"
    write_feature_file(path, feats, [0, 1, 2, 3])
    assert load_feature_file(path).inputs[:].tobytes() == feats.astype("<f4").tobytes()


def test_lcaf_without_samples_loads(tmp_path):
    path = tmp_path / "n0.lcaf"
    write_feature_file(path, np.zeros((0, 4, 3, 3), dtype=np.float32), [])
    ds = load_feature_file(path)
    assert ds.inputs.shape == (0, 4, 3, 3) and len(ds) == 0


def test_lcaf_empty_payload_loads_and_reads_nothing(tmp_path):
    """A header-only file (N = 0: no maps, no labels) loads, and so does an
    empty selection of a file that has maps; neither reads a byte."""
    path = tmp_path / "n0.lcaf"
    write_feature_file(path, np.zeros((0, 4, 3, 3), dtype=np.float32), np.zeros(0, np.int64))
    assert path.read_bytes() == b"LCAF" + struct.pack("<5I", 1, 0, 4, 3, 3)
    ds = load_feature_file(path)
    assert ds.labels.shape == (0,) and ds.inputs[:].shape == (0, 4, 3, 3)
    assert list(batches(ds, 4)) == []
    full = tmp_path / "n2.lcaf"
    write_feature_file(full, np.ones((2, 4, 3, 3), np.float32), [0, 1])
    maps = load_feature_file(full).inputs
    os.truncate(full, 24)  # any read of a map would now come up short
    assert maps[1:1].shape == maps[np.array([], np.int64)].shape == (0, 4, 3, 3)


@pytest.mark.parametrize("labels", [np.array([0, -1]), np.array([0, 2**32 + 1]),
                                    np.array([0, 1.7]), [0, -1]],
                         ids=["negative", "past-u32", "fraction", "list-negative"])
def test_lcaf_label_outside_u32_is_refused_before_writing(tmp_path, labels):
    """At the parent these were stored as 4294967295, 1 and 1, and the list
    raised a bare ``OverflowError``."""
    path = tmp_path / "f.lcaf"
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: labels must be integers"):
        write_feature_file(path, np.ones((2, 1, 1, 1), np.float32), labels)
    assert os.listdir(tmp_path) == []


ONES = np.ones((2, 1, 1, 1), np.float32)


@pytest.mark.parametrize("feats,labels,says", [
    (ONES, [[0], [1, 2]], "labels are ragged"),
    ([[[[1.0]]], [[[1.0], [2.0]]]], [0, 1], "features are ragged"),
    (np.full((2, 1, 1, 1), "a"), [0, 1], "got <U1"),
    (np.ones((2, 1, 1), np.float32), [0, 1], "features must be [N,C,H,W]"),
    (ONES, [0], "labels of shape (1,) for 2 feature maps"),
    (ONES.astype(complex), [0, 1], "got complex128"),
    (np.empty((2, 1, 1, 1), object), [0, 1], "got object"),
    (np.broadcast_to(np.float32(0), (1, 2**32, 1, 1)), [0], "each extent below 2**32"),
], ids=["ragged-labels", "ragged-maps", "string-maps", "rank-3", "label-count", "complex-maps",
        "object-maps", "extent-past-u32"])
def test_lcaf_malformed_arguments_are_refused_before_writing(tmp_path, monkeypatch, feats,
                                                             labels, says):
    """Each is a ``DataError`` starting with the path, raised before a temp
    file opens. The writer once let numpy's ``ValueError`` out for the ragged
    lists and the string maps (those mid-write), dropped the imaginary part of
    complex maps, wrote object maps of ``None`` as NaN, raised ``struct.error``
    for the extent, and named no file in the rank and count refusals."""
    monkeypatch.setattr(D, "_replace_file", lambda *a: pytest.fail("a temp file was opened"))
    path = tmp_path / "f.lcaf"
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: .*{re.escape(says)}"):
        write_feature_file(path, feats, labels)


def test_lcaf_integral_labels_of_any_numeric_type_are_kept(tmp_path):
    path = tmp_path / "f.lcaf"
    for labels in ([0, 2**32 - 1], np.array([0.0, 4294967295.0]), np.array([0, 2**32 - 1], np.uint64)):
        write_feature_file(path, np.ones((2, 1, 1, 1), np.float32), labels)
        assert load_feature_file(path).labels.tolist() == [0, 2**32 - 1]


def test_lcaf_write_from_a_strided_float64_array_is_chunked(tmp_path, monkeypatch):
    """Maps are converted to ``<f4`` a chunk of whole maps at a time, from
    any layout, to the bytes of a whole-array conversion."""
    monkeypatch.setattr(D, "_WRITE_CHUNK", 3 * 4 * 2 * 2 * 3 - 1)  # 2 maps of 48 bytes a chunk
    wide = np.random.default_rng(4).standard_normal((7, 3, 2, 4))
    feats = wide[..., ::2]
    path = tmp_path / "f.lcaf"
    write_feature_file(path, feats, np.arange(7) % 2)
    assert path.read_bytes()[24:-28] == feats.astype("<f4").tobytes()


class FullDisk:
    """A file open for writing on a disk that fills after 24 bytes."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        if memoryview(data).nbytes > 24:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_lcaf_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """A full disk in the middle of the payload leaves neither the file nor
    ``<path>.tmp``."""
    monkeypatch.setattr(D, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_feature_file(tmp_path / "f.lcaf", np.ones((2, 4, 3, 3), np.float32), [0, 1])
    assert os.listdir(tmp_path) == []


def test_ppm_failed_write_leaves_no_file(tmp_path, monkeypatch):
    """A full disk leaves neither the PPM nor ``<path>.tmp``. PPMs were once
    written in place, so a failure left a partial file."""
    monkeypatch.setattr(D, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_ppm(tmp_path / "a.ppm", np.zeros((4, 4, 3), np.uint8))
    assert os.listdir(tmp_path) == []


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


def test_lcaf_unsupported_version(tmp_path):
    path = tmp_path / "v.lcaf"
    write_feature_file(path, np.zeros((2, 1, 2, 2), dtype=np.float32), [0, 1])
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(DataError, match="unsupported LCAF version 2"):
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
    return Dataset(
        rng.uniform_array((n, 3, 16, 16), 0.2, 0.8, dtype=np.float32),
        np.arange(n, dtype=np.int64) % 2,
    )


def test_augment_identity_returns_same_object():
    b = image_batch()
    out = augment(b, AugmentConfig(0, 0.0, 0.0, False), Rng(0))
    assert out is b


def test_augment_rejects_feature_batches():
    b = Dataset(np.zeros((1, 4, 2, 2), np.float32), np.zeros(1, np.int64))
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
    b = Dataset(img, np.zeros(1, np.int64))
    out = augment(b, AugmentConfig(3, 0.0, 0.0, False), Rng(3))
    assert out.inputs.sum() == 3.0  # zero padding never duplicates content
    r, c = np.argwhere(out.inputs[0, 0])[0]
    assert abs(int(r) - 8) <= 3 and abs(int(c) - 8) <= 3


def test_translate_keeps_centered_glyph_in_frame():
    """The generator's margin guarantees ±2px shifts cannot clip the glyph."""
    tr, _ = synth_glyphs(2, 4, 0, seed=7)
    b = Dataset(tr.inputs.copy(), tr.labels)
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


class _ScriptedRng:
    """Stands in for the rng of a translate-only augment: its randint calls
    return a script of values, so a test picks each image's (dr, dc)."""

    def __init__(self, t, shifts):
        self._draws = iter([d + t for shift in shifts for d in shift])

    def randint(self, n):
        value = next(self._draws)
        assert 0 <= value < n
        return value


def _translate(imgs, t, shifts):
    return augment(Dataset(imgs, np.zeros(len(imgs), np.int64)),
                   AugmentConfig(t, 0.0, 0.0, False), _ScriptedRng(t, shifts)).inputs


def test_shift_matches_pixelwise_reference_within_the_image():
    img = Rng(4).uniform_array((3, 5, 4), 0, 1, dtype=np.float32)
    shifts = [(dr, dc) for dr in range(-5, 6) for dc in range(-4, 5)]
    out = _translate(np.stack([img] * len(shifts)), 5, shifts)
    for got, (dr, dc) in zip(out, shifts):
        assert got.tobytes() == _shift_reference(img, dr, dc).tobytes(), (dr, dc)


@pytest.mark.parametrize("dr,dc", [(17, 0), (-17, 0), (0, 17), (0, -17),
                                   (20, 3), (-20, -3), (2, 20), (-2, -20), (20, -20)])
def test_shift_beyond_the_image_is_all_zero(dr, dc):
    """A shift wider than the image moves every pixel out of frame."""
    img = Rng(5).uniform_array((1, 3, 16, 16), 0.1, 1, dtype=np.float32)
    out = _translate(img, 20, [(dr, dc)])
    assert out.shape == img.shape and out.dtype == img.dtype
    assert not out.any()


def test_largest_translate_px_pads_by_the_image_only(tmp_path):
    """translate_px = 2**63 - 1 runs in a child capped at 1 GB of address
    space, so the zero pad must be clamped to the image extent."""
    pytest.importorskip("resource")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import numpy as np\n"
        "from lcanet import AugmentConfig, Dataset, Rng, augment\n"
        "t = 2**63 - 1\n"
        "draws = iter([t + 3, t - 2, 2 * t, 0])\n"
        "class Scripted:\n"
        "    def randint(self, n):\n"
        "        return next(draws)\n"
        "imgs = np.stack([Rng(6).uniform_array((3, 16, 16), 0, 1, dtype=np.float32)] * 2)\n"
        "out = augment(Dataset(imgs, np.zeros(2, np.int64)), AugmentConfig(t), Scripted())\n"
        "np.save(sys.argv[1], out.inputs)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "out.npy"
    proc = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = np.load(path)
    img = Rng(6).uniform_array((3, 16, 16), 0, 1, dtype=np.float32)
    assert out[0].tobytes() == _shift_reference(img, 3, -2).tobytes()
    assert not out[1].any()


def _augment_reference(inputs, cfg, rng):
    """The per-sample loop that augment batches, kept as its byte oracle."""
    if cfg == AugmentConfig():
        return inputs
    out = inputs.copy()
    t = cfg.translate_px
    for i in range(len(out)):
        img = out[i]
        if t:
            dr = rng.randint(2 * t + 1) - t
            dc = rng.randint(2 * t + 1) - t
            img = _shift_reference(img, dr, dc)
        if cfg.brightness_delta:
            img = img + np.float32(rng.uniform(-cfg.brightness_delta, cfg.brightness_delta))
        if cfg.gauss_noise_sigma:
            img = img + rng.normal_array(img.shape, sigma=cfg.gauss_noise_sigma)
        if cfg.hflip and rng.random() < 0.5:
            img = img[:, :, ::-1]
        out[i] = np.clip(img, 0.0, 1.0)
    return out


@pytest.mark.parametrize("n", [1, 32])
@pytest.mark.parametrize("hw", [(16, 16), (5, 4)], ids=["16x16", "5x4"])
@pytest.mark.parametrize("t_of_h", [lambda h: 0, lambda h: 1, lambda h: h - 1, lambda h: h,
                                    lambda h: h + 1, lambda h: 2**63 - 1],
                         ids=["0", "1", "H-1", "H", "H+1", "2**63-1"])
def test_augment_matches_the_per_sample_loop_byte_for_byte(n, hw, t_of_h):
    """Every knob combination gives the loop's bytes and leaves the rng in
    the loop's state; inputs outside [0,1] exercise the clip."""
    h, w = hw
    t = t_of_h(h)
    imgs = Rng(n + h).uniform_array((n, 3, h, w), -0.2, 1.2, dtype=np.float32)
    for brightness, sigma, flip in itertools.product((0.0, 0.3), (0.0, 0.07), (False, True)):
        cfg = AugmentConfig(t, brightness, sigma, flip)
        ref_rng, rng = Rng(t % 1000 + n), Rng(t % 1000 + n)
        want = _augment_reference(imgs, cfg, ref_rng)
        got = augment(Dataset(imgs, np.zeros(n, np.int64)), cfg, rng).inputs
        assert got.dtype == want.dtype and got.shape == want.shape, cfg
        assert got.tobytes() == want.tobytes(), cfg
        assert rng.state_bytes() == ref_rng.state_bytes(), cfg


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(-1, 0.0, 0.0, False)
    AugmentConfig(2**63 - 1, 0.0, 0.0, False)  # 2*t + 1 is a randint bound: <= 2**64
    with pytest.raises(ValueError, match="2\\*\\*63"):
        AugmentConfig(2**63, 0.0, 0.0, False)
    with pytest.raises(ValueError):
        AugmentConfig(0, 1.0, 0.0, False)
    with pytest.raises(ValueError):
        AugmentConfig(0, 0.0, -0.5, False)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_augment_config_refuses_a_non_finite_noise_sigma(sigma):
    """config refuses aug.noise_sigma = nan or inf; a NaN sigma would turn
    every pixel into NaN."""
    with pytest.raises(ValueError, match="finite"):
        AugmentConfig(0, 0.0, sigma, False)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def small_dataset(n=10):
    return Dataset(
        inputs=np.arange(n * 3 * 2 * 2, dtype=np.float32).reshape(n, 3, 2, 2),
        labels=np.arange(n, dtype=np.int64) % 3,
    )


def test_batch_sizes_with_partial_tail():
    sizes = [len(b.labels) for b in batches(small_dataset(10), 4)]
    assert sizes == [4, 4, 2]


def test_epoch_covers_label_multiset():
    ds = small_dataset(10)
    seen = np.concatenate([b.labels for b in batches(ds, 3, rng=Rng(0))])
    assert sorted(seen.tolist()) == sorted(ds.labels.tolist())


@pytest.mark.parametrize("rng", [None, Rng(3)], ids=["in-order", "shuffled"])
def test_batch_holding_nan_or_inf_names_its_lowest_sample(rng):
    """Samples 7 and 8 are bad; whichever batch holds one is refused, and
    the message names that batch's lowest bad sample in the dataset."""
    ds = small_dataset(10)
    ds.inputs[8, 2, 1, 0] = np.nan
    ds.inputs[7, 0, 0, 1] = -np.inf
    with pytest.raises(DataError, match=r"^dataset: sample 7 holds NaN or inf$"):
        next(batches(ds, 10, rng))
    ds.source = "maps.lcaf"
    with pytest.raises(DataError, match=r"^maps\.lcaf: sample [78] holds"):
        list(batches(ds, 4, rng))


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
        Dataset(np.zeros((2, 3, 4, 4), np.float32), np.zeros(3, np.int64))
