"""Model assembly and checkpoint serialization.

A model is backbone -> head -> linear classifier: an ``Architecture`` plus
one array per parameter, in ``Architecture.param_shapes`` order, which
``Model`` wraps as given. ``build_model`` draws them and ``load_checkpoint``
reads them. The backbone is either a small two-stage CNN for end-to-end
desk-scale training, or a pass-through (``external_features``) that consumes
precomputed feature maps, standing in for a large pretrained trunk. The
head is either the local-concepts accumulation layer (given an
``embed_dim``) or, with ``embed_dim=None``, plain global average pooling
(the baseline it is compared against); the classifier is a single linear
layer.

Checkpoints are little-endian binary: magic ``LCAC`` | u32 version=1 |
u32 param-count | per-param (u16 name-len, name UTF-8, u8 dtype=1 for f32,
u8 rank, u32 dims..., f32 payload) | architecture+optimizer section |
u64 epoch | 32-byte rng state. The middle section holds the architecture
(so evaluation can rebuild the model without a config file) and the
optimizer velocity table, encoded like the parameter table. The
architecture opens with four bytes: u8 backbone tag (an index into
``config.BACKBONE_KINDS``) | u8 head tag (into ``config.HEAD_KINDS``) |
u8 kernel-set byte, 1 for LCA and 0 for GAP | u8 pad = 0; any other value
is a ``CheckpointError``. Then u32 H, u32 W | u32 channel count, u32
channels... | u32 embed_dim (0 for GAP, and only 0) | u32 num_classes.
Round-trips are byte-identical.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import BACKBONE_KINDS, HEAD_KINDS, ConfigError, check_backbone
from .data import _replace_file
from .lca import check_extent, lca_forward
from .rng import Rng
from .tensor import Parameter, ShapeError, Tensor


class CheckpointError(ValueError):
    """Checkpoint file malformed, truncated, or incompatible."""


MAGIC = b"LCAC"
VERSION = 1
POOL = 2  # window and stride of each of tiny_cnn's two max-pools
_KERNEL_SET = {"lca": 1, "gap": 0}  # LCA 0 was a square-kernel-only head, no longer built


@dataclass(frozen=True)
class Architecture:
    """What a checkpoint stores besides tensors: backbone, head, classifier.

    Making one runs every architecture rule and raises ``ConfigError``; it
    allocates nothing, so training settles a config with it before reading
    any payload, and the checkpoint loader checks a file's fields with it.
    """

    backbone: str  # a BACKBONE_KINDS entry
    channels: tuple  # tiny_cnn: (C1, C2); external_features: (C,)
    input_size: tuple  # (H, W) of images / feature maps
    embed_dim: int | None  # the LCA head's width; None: the GAP head
    num_classes: int

    def __post_init__(self):
        check_backbone(self.backbone, self.channels)
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        _, fh, fw = self.feature_shape()
        if self.backbone == "tiny_cnn" and min(fh, fw) < 1:  # a pool found no full window
            h, w = self.input_size
            raise ConfigError(f"tiny_cnn needs input >= {POOL**2}x{POOL**2}, got {h}x{w}")
        if self.embed_dim is not None:
            try:
                check_extent(fh, fw)
            except ShapeError as exc:
                raise ConfigError(f"lca head: {exc} (input {self.input_size})") from None
            if self.embed_dim < 1:
                raise ConfigError(f"embed_dim ({self.embed_dim}) must be >= 1")

    @property
    def head(self) -> str:
        return "gap" if self.embed_dim is None else "lca"

    def input_shape(self) -> tuple:
        """(C, H, W) of one sample the backbone reads."""
        if self.backbone == "tiny_cnn":
            return (3, *self.input_size)
        return self.feature_shape()

    def feature_shape(self) -> tuple:
        """(C, H', W') of the map the backbone hands the head."""
        h, w = self.input_size
        if self.backbone == "tiny_cnn":
            return (self.channels[1], h // POOL // POOL, w // POOL // POOL)
        return (self.channels[0], h, w)

    def param_shapes(self) -> dict:
        """Every parameter's shape, in init order."""
        shapes = {}
        if self.backbone == "tiny_cnn":
            c1, c2 = self.channels
            shapes.update(conv1_weight=(c1, 3, 3, 3), conv1_bias=(c1,),
                          conv2_weight=(c2, c1, 3, 3), conv2_bias=(c2,))
        cls_in = feat_c = self.feature_shape()[0]
        if self.embed_dim is not None:
            cls_in = self.embed_dim
            shapes.update(fc_weight=(cls_in, feat_c), fc_bias=(cls_in,))
        shapes.update(cls_weight=(self.num_classes, cls_in), cls_bias=(self.num_classes,))
        return shapes


def _glorot(rng, shape, fan_in, fan_out, dtype):
    s = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform_array(shape, -s, s, dtype=dtype)


# Fan-in-only bound for the conv stages. The gain is deliberately hot: with
# two maxpools and ReLUs between the input and the head, Glorot-scale conv
# weights leave the feature map too flat to break symmetry within the short
# training budgets this library targets, while gain*sqrt(3/fan_in) with
# gain ~3.5 converges reliably at desk scale without blowing up f32.
_CONV_GAIN = 3.5


def _he_uniform(rng, shape, fan_in, dtype):
    s = float(_CONV_GAIN * np.sqrt(3.0 / fan_in))
    return rng.uniform_array(shape, -s, s, dtype=dtype)


class Model:
    def __init__(self, arch: Architecture, arrays: dict):
        self.arch = arch
        self._params = {name: Parameter(name, data) for name, data in arrays.items()}

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def param(self, name: str) -> Parameter:
        return self._params[name]

    def feature_map(self, x: Tensor) -> Tensor:
        c, h, w = self.arch.input_shape()
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(f"input batch {x.shape} != (B, {c}, {h}, {w})")
        if self.arch.backbone == "external_features":
            return x
        # The spatial ops run on batch-innermost [C, H, W, B] maps: one
        # transpose in, one out. Pool, then relu: relu is monotone, so this is
        # relu-then-pool on a quarter of the cells, with the same bytes and
        # the same gradients.
        y = T.transpose(x, (1, 2, 3, 0))
        y = T.conv2d(y, self.param("conv1_weight"), self.param("conv1_bias"), 1, 1)
        y = T.relu(T.maxpool2d(y, POOL, POOL))
        y = T.conv2d(y, self.param("conv2_weight"), self.param("conv2_bias"), 1, 1)
        y = T.relu(T.maxpool2d(y, POOL, POOL))
        return T.transpose(y, (3, 0, 1, 2))

    def head_output(self, fm: Tensor) -> Tensor:
        if self.arch.embed_dim is not None:
            return lca_forward(fm, self.param("fc_weight"), self.param("fc_bias"))
        b, c, h, w = fm.shape
        return T.tensor_mean(T.reshape(fm, (b, c, h * w)), axis=2)

    def forward(self, x: Tensor) -> Tensor:
        feat = self.head_output(self.feature_map(x))
        logits = T.matmul(feat, T.transpose(self.param("cls_weight")))
        return T.add(logits, self.param("cls_bias"))


def build_model(arch: Architecture, rng: Rng, dtype=np.float32) -> Model:
    """A fresh model whose arrays ``rng`` draws, in ``arch.param_shapes()``
    order. Biases start at zero; conv kernels draw He-uniform and linear
    weights Glorot."""
    arrays = {}
    for name, shape in arch.param_shapes().items():
        try:
            if name.endswith("_bias"):
                arrays[name] = np.zeros(shape, dtype=dtype)
            elif name.startswith("conv"):
                arrays[name] = _he_uniform(rng, shape, math.prod(shape[1:]), dtype)
            else:
                arrays[name] = _glorot(rng, shape, shape[1], shape[0], dtype)
        except (MemoryError, ValueError):  # numpy refuses the array size
            raise ConfigError(f"cannot allocate parameter {name} of shape {shape}") from None
    return Model(arch, arrays)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def _write_entry(out: list, name: str, arr: np.ndarray) -> None:
    if arr.dtype != np.float32:
        raise CheckpointError(f"checkpoint stores f32 only; {name} is {arr.dtype}")
    raw = name.encode("utf-8")
    out.append(struct.pack("<H", len(raw)))
    out.append(raw)
    out.append(struct.pack("<BB", 1, arr.ndim))
    out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    """A checkpoint's bytes, read in order; every refusal starts with the path."""

    def __init__(self, path, blob: bytes):
        self.path, self.blob, self.pos = path, blob, 0

    def refuse(self, why: str) -> CheckpointError:
        return CheckpointError(f"{self.path}: {why}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.refuse(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                              f"file has {len(self.blob)}")
        piece = self.blob[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def entry(self, kind: str):
        raw = self.take(self.u("<H"))
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise self.refuse(f"{kind} name {raw!r} is not UTF-8") from None
        dtype_tag = self.u("<B")
        if dtype_tag != 1:
            raise self.refuse(f"{kind} {name}: unknown dtype tag {dtype_tag}")
        rank = self.u("<B")
        if rank > 4:  # no parameter has more axes than a conv kernel
            raise self.refuse(f"{kind} {name}: rank {rank} exceeds 4")
        shape = tuple(self.u("<I") for _ in range(rank))
        count = math.prod(shape)  # a Python int: declared dims cannot wrap around
        data = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise self.refuse(f"{kind} {name} holds NaN or inf")
        return name, data.astype(np.float32)


def _check_tables(path, arch: Architecture, params: list, velocities: list) -> None:
    """The rule of a checkpoint's two tables, which save checks before it builds
    a byte and load once it knows the architecture: (name, array) pairs naming
    distinct parameters of ``arch``, each with its shape. The parameter table
    names all of them; the velocity table any subset (a missing one is zero)."""
    shapes = arch.param_shapes()
    for kind, table in (("param", params), ("velocity", velocities)):
        names = [name for name, _ in table]
        for name, arr in table:
            if name not in shapes:
                raise CheckpointError(f"{path}: {kind} {name} is not in the architecture")
            if names.count(name) > 1:
                raise CheckpointError(f"{path}: {kind} {name} is stored twice")
            if arr.shape != shapes[name]:
                raise CheckpointError(f"{path}: {kind} {name}: stored shape {arr.shape} "
                                      f"!= expected {shapes[name]}")
    if len(params) != len(shapes):
        stored = sorted(name for name, _ in params)
        raise CheckpointError(f"{path}: params {stored} != expected {sorted(shapes)}")


def save_checkpoint(model: Model, path, *, velocities: dict, epoch: int,
                    rng_state: bytes) -> None:
    """Write through ``data._replace_file``, synced: resume trusts a checkpoint."""
    if len(rng_state) != 32:
        raise CheckpointError(f"rng state must be 32 bytes, got {len(rng_state)}")
    params = model.parameters()
    _check_tables(path, model.arch, [(p.name, p.data) for p in params], list(velocities.items()))
    out = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for p in params:
        _write_entry(out, p.name, p.data)

    arch = model.arch
    out.append(struct.pack("<BBBB", BACKBONE_KINDS.index(arch.backbone),
                           HEAD_KINDS.index(arch.head), _KERNEL_SET[arch.head], 0))
    out.append(struct.pack("<II", *arch.input_size))
    out.append(struct.pack(f"<I{len(arch.channels)}I", len(arch.channels), *arch.channels))
    out.append(struct.pack("<II", arch.embed_dim or 0, arch.num_classes))

    out.append(struct.pack("<I", len(velocities)))
    for name in [p.name for p in params if p.name in velocities]:
        _write_entry(out, name, velocities[name])

    out.append(struct.pack("<Q", epoch))
    out.append(rng_state)

    def write(fh):
        fh.write(b"".join(out))
        fh.flush()
        os.fsync(fh.fileno())

    _replace_file(path, write)


@dataclass
class LoadedCheckpoint:
    model: Model
    velocities: dict
    epoch: int
    rng_state: bytes


def load_checkpoint(path) -> LoadedCheckpoint:
    """Read and check a whole checkpoint. The model wraps its stored tensors in
    ``Architecture.param_shapes`` order, whatever the file's order, so a
    re-save is canonical. Each refusal is a ``CheckpointError`` naming the file."""
    with open(path, "rb") as fh:
        r = _Reader(path, fh.read())
    if r.take(4) != MAGIC:
        raise r.refuse("bad magic, not a checkpoint file")
    version = r.u("<I")
    if version != VERSION:
        raise r.refuse(f"unsupported checkpoint version {version}")

    params = [r.entry("param") for _ in range(r.u("<I"))]

    bk, hk, kernel_set, pad = (r.u("<B") for _ in range(4))
    if bk >= len(BACKBONE_KINDS) or hk >= len(HEAD_KINDS):
        raise r.refuse(f"unknown backbone/head tags ({bk}, {hk})")
    head = HEAD_KINDS[hk]
    if kernel_set != _KERNEL_SET[head]:
        raise r.refuse(f"kernel-set byte {kernel_set} on a {head} head, "
                       f"expected {_KERNEL_SET[head]}")
    if pad != 0:
        raise r.refuse(f"architecture pad byte {pad}, expected 0")
    h, w = r.u("<I"), r.u("<I")
    channels = tuple(r.u("<I") for _ in range(r.u("<I")))
    embed, num_classes = r.u("<I"), r.u("<I")
    if head == "gap" and embed != 0:
        raise r.refuse(f"embed_dim field {embed} on a gap head, expected 0")

    velocities = [r.entry("velocity") for _ in range(r.u("<I"))]
    epoch = r.u("<Q")
    rng_state = r.take(32)
    if r.pos != len(r.blob):
        raise r.refuse(f"{len(r.blob) - r.pos} trailing bytes")
    try:
        Rng.from_state_bytes(rng_state)
    except ValueError as exc:
        raise r.refuse(str(exc)) from None

    try:
        arch = Architecture(BACKBONE_KINDS[bk], channels, (h, w),
                            embed if head == "lca" else None, num_classes)
    except ConfigError as exc:
        raise r.refuse(f"invalid architecture: {exc}") from None
    _check_tables(path, arch, params, velocities)
    arrays = dict(params)
    model = Model(arch, {name: arrays[name] for name in arch.param_shapes()})
    return LoadedCheckpoint(model, dict(velocities), epoch, rng_state)
