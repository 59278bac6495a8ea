"""Datasets: PPM image folders, precomputed feature-map files, train-time
augmentation, and a synthetic local-glyph classification task.

The synthetic task is built so that class evidence is strictly local: each
class is a distinct 4x4 binary glyph stamped somewhere on a 16x16 image over
a background of shared distractor glyphs and color jitter. Telling classes
apart requires recognizing a small patch, not the global look of the image —
the regime the local-concepts head is designed for.

Pixel values are float32 in [0,1] everywhere. Synthetic images are quantized
to 255ths at generation time, so a dataset written to PPM files and loaded
back is bit-identical to the in-memory one.
"""

from __future__ import annotations

import math
import operator
import os
import re
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .rng import Rng, _gaussian
from .tensor import ContractError


class DataError(ValueError):
    """Missing, malformed, or inconsistent input data."""


@dataclass
class Dataset:
    inputs: np.ndarray | FeatureMaps  # [N, C, H, W] float32; FeatureMaps reads an LCAF file
    labels: np.ndarray  # [N] int64
    class_names: list | None = None
    source: str | None = None  # the file or tree it was read from, for messages

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.inputs.dtype != np.float32:
            raise DataError(f"inputs must be [N,C,H,W] float32, got {self.inputs.shape}")
        if self.labels.shape != (len(self.inputs),):
            raise DataError("labels length does not match inputs")

    def __len__(self):
        return len(self.inputs)


@dataclass(frozen=True)
class AugmentConfig:
    translate_px: int = 0
    brightness_delta: float = 0.0
    gauss_noise_sigma: float = 0.0
    hflip: bool = False

    def __post_init__(self):
        # 2*translate_px + 1 is a randint bound, which must not pass 2**64.
        if not 0 <= self.translate_px < 2**63 or not 0 <= self.gauss_noise_sigma < math.inf:
            raise ValueError("augmentation magnitudes must be finite and >= 0, "
                             "and translate_px < 2**63")
        if not 0 <= self.brightness_delta < 1:
            raise ValueError(f"brightness_delta must be in [0,1), got {self.brightness_delta}")


# ---------------------------------------------------------------------------
# PPM (P6) image files
# ---------------------------------------------------------------------------


# The four header tokens (magic, width, height, maxval), each after any
# whitespace and ``#`` comments (to CR or LF) and ending at whitespace. The
# match always succeeds; an empty token means the header ran out.
_PPM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)" * 4)


_FIRST_READ = 1 << 16  # bytes asked of a file whose size nothing hints at
_MAX_READ = 1 << 24  # well under the 2 GiB that one read(2) returns at most
# Binary mode where the platform has a text mode, and a FIFO reads as empty
# instead of waiting for a writer.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0) | getattr(os, "O_NONBLOCK", 0)


def _read_bytes(path, size: int = _FIRST_READ) -> bytes:
    """The whole file at ``path``, from one ``os.read`` when the file is
    shorter than ``size`` bytes (at most ``_MAX_READ``): a short read of a
    regular file is its end. Only a full read is followed by more, up to an
    empty read. An error names ``path``, as ``open`` does; ``os.read`` on a
    directory would not."""
    fd = os.open(path, _READ_FLAGS)
    try:
        size = min(size, _MAX_READ)
        blob = os.read(fd, size)
        if len(blob) == size:
            parts = [blob]
            while part := os.read(fd, size):
                parts.append(part)
                size = min(2 * size, _MAX_READ)
            blob = b"".join(parts)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return blob


def _replace_file(path, write) -> None:
    """The one way lcanet writes a file: ``write(fh)`` fills ``<path>.tmp``,
    open for binary writing, which is then renamed over ``path``. A reader of
    the old file keeps its bytes; any failure removes the temp file.

    Only a checkpoint's ``write`` calls ``os.fsync``: resume trusts it. The
    metrics CSV is not synced: a resume writes its rows again from the
    checkpoint's epoch on. The directory is not synced after the rename.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _decode_ppm(blob: bytes, path) -> tuple:
    """Binary PPM bytes -> ([H, W, 3] uint8 view of ``blob``, maxval, offset
    of the payload).

    Refuses, in this order: a header without a first token, a first token
    that is not ``P6``, a width, height or maxval that is missing or not an
    integer, an extent below 1, a maxval outside 1..255, a short payload and
    a sample above maxval. ``path`` only names the file in the messages.
    """
    header = _PPM_HEADER.match(blob)
    magic, *fields = header.groups()
    if not magic:
        raise DataError(f"{path}: truncated PPM header")
    if magic != b"P6":
        raise DataError(f"{path}: not a binary (P6) PPM file")
    try:
        w, h, maxval = map(int, fields)  # an empty field is malformed too
    except ValueError:
        raise DataError(f"{path}: malformed PPM header") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PPM dimensions {w}x{h}")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported PPM maxval {maxval} (need 1..255)")
    pos = header.end() + 1  # exactly one whitespace byte separates header from pixels
    need = 3 * w * h
    if len(blob) - pos < need:
        raise DataError(f"{path}: PPM payload is {max(len(blob) - pos, 0)} bytes, need {need}")
    arr = np.ndarray((h, w, 3), np.uint8, blob, pos)
    if maxval < 255 and arr.max() > maxval:
        raise DataError(f"{path}: PPM sample exceeds maxval {maxval}")
    return arr, maxval, pos


def read_ppm(path) -> np.ndarray:
    """Binary PPM -> [H, W, 3] float32 in [0,1]: each sample divided by maxval.

    The file is read once; ``_decode_ppm`` lists what it refuses, each as a
    ``DataError`` naming the file.
    """
    arr, maxval, _ = _decode_ppm(_read_bytes(path), path)
    return arr.astype(np.float32) / maxval


def write_ppm(path, img: np.ndarray) -> None:
    """[H, W, 3] float32 in [0,1] (or uint8) -> binary PPM, maxval 255."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"write_ppm wants [H,W,3], got {img.shape}")
    if img.dtype != np.uint8:
        img = np.round(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = img.shape[:2]
    _replace_file(path, lambda fh: fh.write(b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()))


def _resize_bilinear(img: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Half-pixel-centered bilinear resample of [H,W,3]; identity is exact."""
    h, w = img.shape[:2]
    src = img.astype(np.float64)

    def grid(n_src, n_dst):
        pos = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
        base = np.floor(pos)
        frac = np.clip(pos - base, 0.0, 1.0)
        i0 = np.clip(base, 0, n_src - 1).astype(np.int64)
        i1 = np.clip(base + 1, 0, n_src - 1).astype(np.int64)
        return i0, i1, frac

    y0, y1, fy = grid(h, th)
    x0, x1, fx = grid(w, tw)
    top = src[y0][:, x0] * (1 - fx)[None, :, None] + src[y0][:, x1] * fx[None, :, None]
    bot = src[y1][:, x0] * (1 - fx)[None, :, None] + src[y1][:, x1] * fx[None, :, None]
    out = top * (1 - fy)[:, None, None] + bot * fy[:, None, None]
    return out.astype(np.float32)


def load_image_dir(root, size=(16, 16)) -> Dataset:
    """``root/<class_name>/*.ppm`` -> image dataset; classes in sorted name order.

    Every path is listed first, then each file is read once, with one
    ``os.read`` sized one byte past the previous file. An image of the target
    size is decoded into one uint8 array, and the whole array is divided by
    the per-image maxvals at once, in float32, which gives ``read_ppm``'s
    bytes. A file that starts with the header bytes of the last file decoded
    at the target size with maxval 255, and holds the payload, would decode
    to the same extent and maxval: its payload is copied without parsing the
    header again. Every other file goes through ``_decode_ppm``, so the first
    bad file in sorted order is the one refused. An image of another size
    goes through ``read_ppm``'s conversion and ``_resize_bilinear``. A target
    size numpy refuses to allocate is a ``DataError`` naming it.
    """
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root} is not a directory")
    with os.scandir(root) as entries:
        class_names = sorted(e.name for e in entries if e.is_dir())
    if not class_names:
        raise DataError(f"dataset root {root} has no class subdirectories")
    paths, labels = [], []
    for idx, name in enumerate(class_names):
        cdir = os.path.join(root, name)
        with os.scandir(cdir) as entries:
            files = sorted(e.path for e in entries if e.name.endswith(".ppm"))
        if not files:
            raise DataError(f"class directory {cdir} contains no .ppm files")
        paths += files
        labels += [idx] * len(files)

    th, tw = size
    refused = DataError(f"cannot allocate images resized to {th}x{tw} (input_size)")
    try:
        inputs = np.empty((len(paths), 3, th, tw), np.float32)
        raw = np.zeros((len(paths), th, tw, 3), np.uint8)
    except (MemoryError, ValueError):  # numpy refuses the array size
        raise refused from None
    maxvals = np.zeros(len(paths), np.float32)  # stays 0 for a resized image
    resized = 0
    need = 3 * th * tw
    pixels = memoryview(raw).cast("B")
    head = None  # header bytes of the last target-size file with maxval 255
    hint = _FIRST_READ
    for i, path in enumerate(paths):
        blob = _read_bytes(path, hint)
        hint = len(blob) + 1  # a tree's files tend to share a size
        if head and blob.startswith(head) and len(blob) - len(head) >= need:
            pixels[i * need : (i + 1) * need] = blob[len(head) : len(head) + need]
            maxvals[i] = 255
            continue
        arr, maxval, pos = _decode_ppm(blob, path)
        if arr.shape[:2] == (th, tw):
            raw[i] = arr
            maxvals[i] = maxval
            if maxval == 255:
                head = blob[:pos]
            continue
        try:
            img = _resize_bilinear(arr.astype(np.float32) / maxval, th, tw)
        except (MemoryError, ValueError):
            raise refused from None
        inputs[i] = img.transpose(2, 0, 1)
        resized += 1
    decoded = (maxvals > 0)[:, None, None, None] if resized else True
    # Transposed as bytes first: a strided float division is slower.
    np.divide(np.ascontiguousarray(raw.transpose(0, 3, 1, 2)), maxvals[:, None, None, None],
              out=inputs, where=decoded)
    return Dataset(inputs=inputs, labels=np.array(labels, dtype=np.int64),
                   class_names=class_names, source=str(root))


# ---------------------------------------------------------------------------
# LCAF precomputed-feature files
# ---------------------------------------------------------------------------

_LCAF_MAGIC = b"LCAF"
_LCAF_VERSION = 1
_WRITE_CHUNK = 1 << 24  # bytes of maps converted to <f4 and written at a time


def write_feature_file(path, feats: np.ndarray, labels) -> None:
    """[N,C,H,W] float32 + labels -> little-endian LCAF file.

    The maps are written from ``feats``' own buffer, converted to ``<f4`` a
    chunk of whole maps (at most 16 MiB) at a time, so no copy of the whole
    payload is made. ``_replace_file`` writes it, so a dataset loaded from
    the old file keeps reading the old bytes. Malformed arguments are a
    ``DataError`` starting with ``path``, raised before the temp file opens;
    the maps are refused by dtype kind and by a zero C, H or W, not
    converted up front. A map holding NaN or inf after the conversion (a
    float64 beyond the ``<f4`` range becomes inf) is refused as its chunk
    is written, and the temp file is removed: no file the readers refuse
    is written.
    """
    try:
        feats = np.asarray(feats)
    except ValueError:  # numpy refuses a ragged nested list
        raise DataError(f"{path}: features are ragged, not an [N,C,H,W] array") from None
    if feats.ndim != 4 or feats.dtype.kind not in "biuf" or max(feats.shape) >= 2**32:
        raise DataError(f"{path}: features must be [N,C,H,W] real numbers, each extent "
                        f"below 2**32; got {feats.dtype} of shape {feats.shape}")
    if 0 in feats.shape[1:]:
        c, h, w = feats.shape[1:]
        raise DataError(f"{path}: LCAF maps are {c}x{h}x{w} (C, H, W); each must be >= 1")
    n = feats.shape[0]
    try:
        labels = np.asarray(labels)
    except ValueError:
        raise DataError(f"{path}: labels are ragged, not a list of {n}") from None
    if labels.shape != (n,):
        raise DataError(f"{path}: labels of shape {labels.shape} for {n} feature maps")
    kind = labels.dtype.kind
    whole = kind in "iu" or (kind == "f" and (labels == np.trunc(labels)).all())
    if not (whole and ((labels >= 0) & (labels < 2**32)).all()):
        raise DataError(f"{path}: labels must be integers in [0, 2**32)")
    per_chunk = max(1, _WRITE_CHUNK // max(1, 4 * math.prod(feats.shape[1:])))

    def write(fh):
        fh.write(_LCAF_MAGIC + struct.pack("<5I", _LCAF_VERSION, *feats.shape))
        for start in range(0, n, per_chunk):
            with np.errstate(over="ignore"):  # an overflow to inf is refused below
                chunk = np.ascontiguousarray(feats[start : start + per_chunk], dtype="<f4")
            # min and max propagate NaN and make no temporary the chunk's size.
            if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
                finite = np.isfinite(chunk).reshape(len(chunk), -1).all(axis=1)
                bad = start + int(np.argmin(finite))
                raise DataError(f"{path}: map {bad} holds NaN or inf as float32")
            fh.write(chunk)
        fh.write(labels.astype("<u4"))

    _replace_file(path, write)


def _read_header(fh, path) -> tuple:
    """(N, C, H, W) from the header of the LCAF file open as ``fh``, checked
    against the file's size."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(24)
    if head[:4] != _LCAF_MAGIC:
        raise DataError(f"{path}: bad magic, not an LCAF feature file")
    if len(head) < 24:
        raise DataError(f"{path}: truncated LCAF header")
    version, n, c, h, w = struct.unpack("<5I", head[4:])
    if version != _LCAF_VERSION:
        raise DataError(f"{path}: unsupported LCAF version {version}")
    if 0 in (c, h, w):
        raise DataError(f"{path}: LCAF maps are {c}x{h}x{w} (C, H, W); each must be >= 1")
    need = 24 + 4 * (n * c * h * w + n)
    if size != need:
        raise DataError(f"{path}: LCAF payload is {size} bytes, need {need}")
    return n, c, h, w


def read_feature_header(path) -> tuple:
    """(N, C, H, W) from an LCAF file's header; reads no payload. A bad magic,
    version or size, or a zero C, H or W, is a ``DataError`` naming the file."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _read_at(fh, offset: int, out: np.ndarray, path) -> None:
    """Fill ``out`` from ``fh`` at byte ``offset``: one request, repeated
    from where it stopped until ``out`` is full. End of file first is a
    ``DataError`` naming ``path``."""
    view = memoryview(out).cast("B")
    fh.seek(offset)
    while view:
        got = fh.readinto(view)
        if not got:
            raise DataError(f"{path}: LCAF file ends at byte {os.fstat(fh.fileno()).st_size}, "
                            "short of what its header gives; it was cut short while in use")
        view = view[got:]


class FeatureMaps:
    """The [N, C, H, W] float32 maps of an open LCAF file, read on demand.

    Indexing the first axis by an int, a slice or a 1-D int array reads the
    chosen maps into a fresh array, one positioned read per run of
    consecutive indices; ``maps[:]`` reads them all. Nothing else reads the
    file, so memory stays bounded by what one index asks for. The file is
    closed when the object is collected.
    """

    ndim = 4
    dtype = np.dtype(np.float32)

    def __init__(self, fh, shape: tuple, path):
        self._fh, self.shape, self.path = fh, shape, path
        self._map_bytes = 4 * math.prod(shape[1:])
        weakref.finalize(self, fh.close)

    def __len__(self):
        return self.shape[0]

    def __iter__(self):  # else numpy would read the file map by map as a sequence
        raise TypeError("LCAF maps are read by index; maps[:] reads them all")

    def __getitem__(self, key):
        n = len(self)
        if isinstance(key, slice):
            rows = range(*key.indices(n))
        elif isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu":
            # A batch holds a few indices: plain ints beat numpy calls here.
            rows = [i + n if i < 0 else i for i in key.tolist()]
            if rows and not 0 <= min(rows) <= max(rows) < n:
                raise IndexError(f"index out of range for {n} LCAF maps")
        elif isinstance(key, np.ndarray):
            raise IndexError(f"LCAF maps take a 1-D int index array, got {key.dtype} "
                             f"of shape {key.shape}")
        else:
            return self[np.array([operator.index(key)])][0]
        out = np.empty((len(rows),) + self.shape[1:], "<f4")
        lo = 0
        for hi in range(1, len(rows) + 1):  # one read per run of consecutive rows
            if hi == len(rows) or rows[hi] != rows[hi - 1] + 1:
                _read_at(self._fh, 24 + rows[lo] * self._map_bytes, out[lo:hi], self.path)
                lo = hi
        return out.astype(np.float32, copy=False)


def load_feature_file(path) -> Dataset:
    """LCAF file -> dataset, once its header passes ``read_feature_header``'s
    checks.

    The file is opened once, unbuffered, and stays open: only the labels are
    read now, and ``inputs`` is a ``FeatureMaps`` that reads each batch's
    maps from it with positioned reads. Memory stays bounded by one batch,
    and the dataset keeps reading the file it opened even after another is
    renamed over ``path``. A file cut short while in use is a ``DataError``
    naming it at the next read.
    """
    fh = open(path, "rb", buffering=0)
    try:
        n, c, h, w = _read_header(fh, path)
        labels = np.empty(n, "<u4")
        _read_at(fh, 24 + 4 * n * c * h * w, labels, path)
    except BaseException:
        fh.close()
        raise
    return Dataset(FeatureMaps(fh, (n, c, h, w), path), labels.astype(np.int64),
                   source=str(path))


# ---------------------------------------------------------------------------
# synthetic local-glyph task
# ---------------------------------------------------------------------------

_IMG = 16
_GLYPH = 4
_N_DISTRACTORS = 6
_DISTRACTORS_PER_IMAGE = 2
_CLASS_MARGIN = 2  # keeps the class glyph >= 2px from the border
_BG_RANGE = (0.05, 0.30)
# Class glyphs are bright, distractors are mid-tone: the label signal must be
# locally salient (a small net has ~30 epochs to find it) yet the distractors
# still force the head to discriminate shape, not mere brightness peaks.
_CLASS_COLOR = (0.85, 1.0)
_DISTRACTOR_COLOR = (0.30, 0.45)
_JITTER = 0.02


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _hamming(a: int, b: int) -> int:
    return _popcount(a ^ b)


def _draw_mask(rng: Rng, reject) -> int:
    for _ in range(100_000):
        mask = rng.randint(1 << (_GLYPH * _GLYPH))
        if 5 <= _popcount(mask) <= 11 and not reject(mask):
            return mask
    raise RuntimeError("glyph sampling stalled; constraints unsatisfiable")


def make_glyphs(k: int, rng: Rng):
    """k class glyphs (pairwise Hamming >= 6) + shared distractor glyphs."""
    classes: list[int] = []
    for _ in range(k):
        classes.append(
            _draw_mask(rng, lambda m: any(_hamming(m, g) < 6 for g in classes))
        )
    distractors = [
        _draw_mask(rng, lambda m: any(_hamming(m, g) < 4 for g in classes))
        for _ in range(_N_DISTRACTORS)
    ]
    return classes, distractors


def _stamp(img: np.ndarray, mask: int, r: int, c: int, color, bg) -> None:
    """Draw the full 4x4 cell: set bits get ``color``, clear bits ``bg``."""
    for i in range(_GLYPH):
        for j in range(_GLYPH):
            img[:, r + i, c + j] = color if mask >> (i * _GLYPH + j) & 1 else bg


def _synth_image(label_mask: int, distractors, rng: Rng) -> np.ndarray:
    img = np.empty((3, _IMG, _IMG), dtype=np.float32)
    bg = rng.uniform(*_BG_RANGE)
    img[:] = bg
    span = _IMG - _GLYPH + 1  # any position keeping the cell in frame
    for _ in range(_DISTRACTORS_PER_IMAGE):
        mask = distractors[rng.randint(len(distractors))]
        r, c = rng.randint(span), rng.randint(span)
        color = [rng.uniform(*_DISTRACTOR_COLOR) for _ in range(3)]
        _stamp(img, mask, r, c, color, bg)
    lo, hi = _CLASS_MARGIN, _IMG - _GLYPH - _CLASS_MARGIN
    r = lo + rng.randint(hi - lo + 1)
    c = lo + rng.randint(hi - lo + 1)
    color = [rng.uniform(*_CLASS_COLOR) for _ in range(3)]
    _stamp(img, label_mask, r, c, color, bg)
    img += np.float32(rng.uniform(-_JITTER, _JITTER))
    np.clip(img, 0.0, 1.0, out=img)
    return np.round(img * 255) / np.float32(255)


def synth_glyphs(k: int, n_train: int, n_test: int, seed: int):
    """Two disjoint datasets of 16x16 RGB images, ``k`` glyph classes."""
    if not 2 <= k <= 16:
        raise ConfigError(f"synth_glyphs supports 2..16 classes, got {k}")
    if n_train < 1 or n_test < 0:
        raise ConfigError("need n_train >= 1 and n_test >= 0 per class")
    rng = Rng(seed)
    classes, distractors = make_glyphs(k, rng)

    seen = set()

    def fresh(mask: int) -> np.ndarray:
        for _ in range(1000):
            img = _synth_image(mask, distractors, rng)
            key = img.tobytes()
            if key not in seen:
                seen.add(key)
                return img
        raise RuntimeError("could not generate a distinct image")

    def split(per_class: int) -> Dataset:
        xs, ys = [], []
        for cls in range(k):
            for _ in range(per_class):
                xs.append(fresh(classes[cls]))
                ys.append(cls)
        return Dataset(
            inputs=np.stack(xs) if xs else np.zeros((0, 3, _IMG, _IMG), np.float32),
            labels=np.array(ys, dtype=np.int64),
            class_names=[f"class_{i:02d}" for i in range(k)],
        )

    return split(n_train), split(n_test)


# ---------------------------------------------------------------------------
# augmentation and batching
# ---------------------------------------------------------------------------


def augment(batch: Dataset, cfg: AugmentConfig, rng: Rng) -> Dataset:
    """Per-sample translate / brightness / noise / flip, clamped to [0,1].

    A loop over the samples makes the scalar draws in a fixed order (for
    each image: translate dr, dc; brightness; one noise key; the flip bit),
    and a knob at zero draws nothing, so identical configs consume identical
    rng streams. The arithmetic then runs once over the whole batch, with the
    bytes of transforming each image on its own. An all-zero config returns
    the batch untouched, whatever it holds.
    """
    if cfg == AugmentConfig():
        return batch
    if batch.inputs.shape[1] != 3:
        raise ContractError(f"augment applies to RGB images only, got {batch.inputs.shape}")
    x = batch.inputs
    n, c, h, w = x.shape
    t = cfg.translate_px
    drs, dcs, bright, keys, flips = [], [], [], [], []
    for _ in range(n):
        if t:
            # A shift of the full extent or more leaves nothing in frame.
            drs.append(min(max(rng.randint(2 * t + 1) - t, -h), h))
            dcs.append(min(max(rng.randint(2 * t + 1) - t, -w), w))
        if cfg.brightness_delta:
            bright.append(rng.uniform(-cfg.brightness_delta, cfg.brightness_delta))
        if cfg.gauss_noise_sigma:
            keys.append(rng.next_u64())
        if cfg.hflip:
            flips.append(rng.random() < 0.5)
    if t:
        # Window (ph - dr, pw - dc) of a zero-padded copy is the shifted image.
        # The pad is clamped like the shifts, so a huge translate_px costs no
        # more than one image extent.
        ph, pw = min(t, h), min(t, w)
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
        padded[:, :, ph : ph + h, pw : pw + w] = x
        windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))
        x = windows[np.arange(n), :, ph - np.array(drs, np.int64), pw - np.array(dcs, np.int64)]
    if cfg.brightness_delta:
        x = x + np.array(bright, np.float32)[:, None, None, None]
    if cfg.gauss_noise_sigma:
        noise = _gaussian(np.array(keys, np.uint64), c * h * w)
        noise *= cfg.gauss_noise_sigma
        x = x + noise.reshape(x.shape).astype(np.float32)
    if cfg.hflip:
        x = np.where(np.array(flips, bool)[:, None, None, None], x[..., ::-1], x)
    return Dataset(np.clip(x, 0.0, 1.0), batch.labels)


def batches(dataset: Dataset, batch_size: int, rng: Rng | None = None):
    """One epoch of batches, each a Dataset; seeded shuffle when an rng is given.

    Each batch is checked as it is copied out: one holding NaN or inf is a
    ``DataError`` naming the dataset's source and the lowest such sample's
    index in it. LCAF maps are never checked whole, so each map is read
    only by the batch that uses it.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    order = np.array(rng.permutation(n), dtype=np.int64) if rng else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        inputs = dataset.inputs[idx]
        if not np.isfinite(inputs).all():
            bad = idx[~np.isfinite(inputs).reshape(len(idx), -1).all(axis=1)].min()
            raise DataError(f"{dataset.source or 'dataset'}: sample {bad} holds NaN or inf")
        yield Dataset(inputs, dataset.labels[idx])
