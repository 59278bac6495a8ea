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

import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .rng import Rng
from .tensor import ContractError


class DataError(ValueError):
    """Missing, malformed, or inconsistent input data."""


@dataclass
class Dataset:
    inputs: np.ndarray  # [N, C, H, W] float32
    labels: np.ndarray  # [N] int64
    mode: str  # "image" (C=3, augmentable) or "feature"
    class_names: list | None = None

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.inputs.dtype != np.float32:
            raise DataError(f"inputs must be [N,C,H,W] float32, got {self.inputs.shape}")
        if self.labels.shape != (len(self.inputs),):
            raise DataError("labels length does not match inputs")
        if self.mode not in ("image", "feature"):
            raise DataError(f"unknown dataset mode {self.mode!r}")

    def __len__(self):
        return len(self.inputs)


@dataclass
class SampleBatch:
    inputs: np.ndarray
    labels: np.ndarray
    mode: str


@dataclass(frozen=True)
class AugmentConfig:
    translate_px: int = 0
    brightness_delta: float = 0.0
    gauss_noise_sigma: float = 0.0
    hflip: bool = False

    def __post_init__(self):
        if self.translate_px < 0 or self.gauss_noise_sigma < 0:
            raise ValueError("augmentation magnitudes must be >= 0")
        if not 0 <= self.brightness_delta < 1:
            raise ValueError(f"brightness_delta must be in [0,1), got {self.brightness_delta}")

    @property
    def is_identity(self) -> bool:
        return (self.translate_px == 0 and self.brightness_delta == 0
                and self.gauss_noise_sigma == 0 and not self.hflip)


# ---------------------------------------------------------------------------
# PPM (P6) image files
# ---------------------------------------------------------------------------


def read_ppm(path) -> np.ndarray:
    """Binary PPM -> [H, W, 3] float32 in [0,1]."""
    with open(path, "rb") as fh:
        blob = fh.read()

    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos : pos + 1]
            if ch == b"#":  # comment runs to end of line
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        return blob[start:pos]

    if token() != b"P6":
        raise DataError(f"{path}: not a binary (P6) PPM file")
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise DataError(f"{path}: malformed PPM header") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PPM dimensions {w}x{h}")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported PPM maxval {maxval} (need 1..255)")
    pos += 1  # exactly one whitespace byte separates header from pixels
    pixels = blob[pos : pos + 3 * w * h]
    if len(pixels) != 3 * w * h:
        raise DataError(f"{path}: PPM payload is {len(pixels)} bytes, need {3 * w * h}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
    return arr.astype(np.float32) / maxval


def write_ppm(path, img: np.ndarray) -> None:
    """[H, W, 3] float32 in [0,1] (or uint8) -> binary PPM, maxval 255."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"write_ppm wants [H,W,3], got {img.shape}")
    if img.dtype != np.uint8:
        img = np.round(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


def _resize_bilinear(img: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Half-pixel-centered bilinear resample of [H,W,3]; identity is exact."""
    h, w = img.shape[:2]
    if (h, w) == (th, tw):
        return img.copy()
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
    """``root/<class_name>/*.ppm`` -> image dataset; classes in sorted name order."""
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root} is not a directory")
    class_names = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    if not class_names:
        raise DataError(f"dataset root {root} has no class subdirectories")
    images, labels = [], []
    for idx, name in enumerate(class_names):
        cdir = os.path.join(root, name)
        files = sorted(f for f in os.listdir(cdir) if f.endswith(".ppm"))
        if not files:
            raise DataError(f"class directory {cdir} contains no .ppm files")
        for fname in files:
            img = read_ppm(os.path.join(cdir, fname))
            images.append(_resize_bilinear(img, size[0], size[1]).transpose(2, 0, 1))
            labels.append(idx)
    return Dataset(
        inputs=np.ascontiguousarray(np.stack(images), dtype=np.float32),
        labels=np.array(labels, dtype=np.int64),
        mode="image",
        class_names=class_names,
    )


# ---------------------------------------------------------------------------
# LCAF precomputed-feature files
# ---------------------------------------------------------------------------

_LCAF_MAGIC = b"LCAF"
_LCAF_VERSION = 1


def write_feature_file(path, feats: np.ndarray, labels) -> None:
    """[N,C,H,W] float32 + labels -> little-endian LCAF file."""
    feats = np.ascontiguousarray(feats, dtype="<f4")
    labels = np.asarray(labels, dtype="<u4")
    if feats.ndim != 4:
        raise DataError(f"features must be [N,C,H,W], got {feats.shape}")
    if labels.shape != (feats.shape[0],):
        raise DataError("labels length does not match feature count")
    with open(path, "wb") as fh:
        fh.write(_LCAF_MAGIC)
        fh.write(struct.pack("<5I", _LCAF_VERSION, *feats.shape))
        fh.write(feats.tobytes())
        fh.write(labels.tobytes())


def load_feature_file(path) -> Dataset:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(24)
        if head[:4] != _LCAF_MAGIC:
            raise DataError(f"{path}: bad magic, not an LCAF feature file")
        if len(head) < 24:
            raise DataError(f"{path}: truncated LCAF header")
        version, n, c, h, w = struct.unpack("<5I", head[4:24])
        if version != _LCAF_VERSION:
            raise DataError(f"{path}: unsupported LCAF version {version}")
        count = n * c * h * w
        need = 24 + 4 * count + 4 * n
        if size != need:
            raise DataError(f"{path}: LCAF payload is {size} bytes, need {need}")
        feats = np.fromfile(fh, dtype="<f4", count=count)
        labels = np.fromfile(fh, dtype="<u4", count=n)
    if feats.size != count or labels.size != n:
        raise DataError(f"{path}: LCAF file ended early ({size} bytes announced)")
    return Dataset(
        inputs=feats.reshape(n, c, h, w).astype(np.float32, copy=False),
        labels=labels.astype(np.int64),
        mode="feature",
    )


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
            mode="image",
            class_names=[f"class_{i:02d}" for i in range(k)],
        )

    return split(n_train), split(n_test)


# ---------------------------------------------------------------------------
# augmentation and batching
# ---------------------------------------------------------------------------


def _shift(img: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Integer translation with zero padding, [C,H,W]."""
    out = np.zeros_like(img)
    _, h, w = img.shape
    # A shift of the full extent or more leaves nothing in frame.
    dr, dc = min(max(dr, -h), h), min(max(dc, -w), w)
    rs, re = max(dr, 0), min(h + dr, h)
    cs, ce = max(dc, 0), min(w + dc, w)
    out[:, rs:re, cs:ce] = img[:, rs - dr : re - dr, cs - dc : ce - dc]
    return out


def augment(batch: SampleBatch, cfg: AugmentConfig, rng: Rng) -> SampleBatch:
    """Per-sample translate / brightness / noise / flip, clamped to [0,1].

    Draw order is fixed (translate dr,dc; brightness; noise; flip) and a
    knob at zero draws nothing, so identical configs consume identical rng
    streams. An all-zero config returns the batch untouched.
    """
    if batch.mode != "image":
        raise ContractError("augment applies to image batches only")
    if cfg.is_identity:
        return batch
    out = batch.inputs.copy()
    t = cfg.translate_px
    for i in range(len(out)):
        img = out[i]
        if t:
            dr = rng.randint(2 * t + 1) - t
            dc = rng.randint(2 * t + 1) - t
            img = _shift(img, dr, dc)
        if cfg.brightness_delta:
            img = img + np.float32(rng.uniform(-cfg.brightness_delta, cfg.brightness_delta))
        if cfg.gauss_noise_sigma:
            noise = rng.normal_array(img.shape, sigma=cfg.gauss_noise_sigma)
            img = img + noise
        if cfg.hflip and rng.random() < 0.5:
            img = img[:, :, ::-1]
        out[i] = np.clip(img, 0.0, 1.0)
    return SampleBatch(out, batch.labels, batch.mode)


def batches(dataset: Dataset, batch_size: int, rng: Rng | None = None):
    """One epoch of SampleBatches; seeded shuffle when an rng is given."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    order = np.array(rng.permutation(n), dtype=np.int64) if rng else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield SampleBatch(dataset.inputs[idx], dataset.labels[idx], dataset.mode)
