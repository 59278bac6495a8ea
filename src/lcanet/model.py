"""Model assembly and checkpoint serialization.

A model is backbone -> head -> linear classifier. The backbone is either a
small two-stage CNN for end-to-end desk-scale training, or a pass-through
(``external_features``) that consumes precomputed feature maps, standing in
for a large pretrained trunk. The head is either the local-concepts
accumulation layer (given an ``LcaConfig``) or, with ``lca_cfg=None``,
plain global average pooling (the baseline it is compared against); the
classifier is a single linear layer.

Checkpoints are little-endian binary: magic ``LCAC`` | u32 version=1 |
u32 param-count | per-param (u16 name-len, name UTF-8, u8 dtype=1 for f32,
u8 rank, u32 dims..., f32 payload) | architecture+optimizer section |
u64 epoch | 32-byte rng state. The middle section holds the architecture
(so evaluation can rebuild the model without a config file) and the
optimizer velocity table, encoded like the parameter table. Round-trips
are byte-identical.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError
from .lca import LcaConfig, lca_forward
from .tensor import Parameter, ShapeError, Tensor


class CheckpointError(ValueError):
    """Checkpoint file malformed, truncated, or incompatible."""


BACKBONE_KINDS = ("tiny_cnn", "external_features")
HEAD_KINDS = ("gap", "lca")
MAGIC = b"LCAC"
VERSION = 1


@dataclass(frozen=True)
class BackboneConfig:
    kind: str
    channels: tuple  # tiny_cnn: (C1, C2); external_features: (C,)
    input_size: tuple  # (H, W) of images / feature maps

    def __post_init__(self):
        if self.kind not in BACKBONE_KINDS:
            raise ConfigError(f"unknown backbone kind {self.kind!r}")
        if self.kind == "tiny_cnn" and len(self.channels) != 2:
            raise ConfigError("tiny_cnn takes exactly two channel counts")
        if self.kind == "external_features" and len(self.channels) != 1:
            raise ConfigError("external_features takes exactly one channel count")
        if any(c < 1 for c in self.channels):
            raise ConfigError(f"channel counts must be >= 1, got {self.channels}")

    def feature_shape(self) -> tuple:
        """(C, H', W') of the map this backbone hands the head."""
        h, w = self.input_size
        if self.kind == "tiny_cnn":
            return (self.channels[1], h // 2 // 2, w // 2 // 2)
        return (self.channels[0], h, w)


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
    def __init__(self, backbone: BackboneConfig, lca_cfg, num_classes, dtype):
        self.backbone = backbone
        self.lca_cfg = lca_cfg  # None: the GAP head
        self.num_classes = num_classes
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Parameter] = {}

    # -- construction ------------------------------------------------------

    def _add(self, name: str, data) -> Parameter:
        p = Parameter(name, np.asarray(data, dtype=self.dtype))
        self._params[name] = p
        return p

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def param(self, name: str) -> Parameter:
        return self._params[name]

    @property
    def head(self) -> str:
        return "gap" if self.lca_cfg is None else "lca"

    # -- forward -------------------------------------------------------------

    def feature_map(self, x: Tensor) -> Tensor:
        if self.backbone.kind == "external_features":
            if x.ndim != 4 or x.shape[1] != self.backbone.channels[0]:
                raise ShapeError(
                    f"feature batch {x.shape} does not carry "
                    f"{self.backbone.channels[0]} channels"
                )
            return x
        h, w = self.backbone.input_size
        if x.ndim != 4 or x.shape[1:] != (3, h, w):
            raise ShapeError(f"image batch {x.shape} != (B, 3, {h}, {w})")
        y = T.conv2d(x, self.param("conv1_weight"), self.param("conv1_bias"), 1, 1)
        y = T.maxpool2d(T.relu(y), 2, 2)
        y = T.conv2d(y, self.param("conv2_weight"), self.param("conv2_bias"), 1, 1)
        return T.maxpool2d(T.relu(y), 2, 2)

    def head_output(self, fm: Tensor) -> Tensor:
        if self.lca_cfg is not None:
            return lca_forward(fm, self.param("fc_weight"), self.param("fc_bias"),
                               self.lca_cfg.include_one_by_k)
        b, c, h, w = fm.shape
        return T.tensor_mean(T.reshape(fm, (b, c, h * w)), axis=2)

    def forward(self, x: Tensor) -> Tensor:
        feat = self.head_output(self.feature_map(x))
        logits = T.matmul(feat, T.transpose(self.param("cls_weight")))
        return T.add(logits, self.param("cls_bias"))


def param_shapes(backbone: BackboneConfig, lca_cfg: LcaConfig | None,
                 num_classes: int) -> dict:
    """Validate an architecture and return its parameter shapes, in init order.

    Allocates nothing, so the checkpoint loader can check a file's declared
    architecture against the tensors it actually holds before building.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")

    if backbone.kind == "tiny_cnn":
        h, w = backbone.input_size
        if h < 4 or w < 4:
            raise ConfigError(f"tiny_cnn needs input >= 4x4, got {h}x{w}")

    feat_c, fh, fw_ = backbone.feature_shape()
    if lca_cfg is not None and fh * fw_ < 2:
        raise ConfigError(
            f"lca head needs a feature map larger than 1x1, got {fh}x{fw_} "
            f"(input {backbone.input_size})"
        )

    shapes = {}
    if backbone.kind == "tiny_cnn":
        c1, c2 = backbone.channels
        shapes.update(conv1_weight=(c1, 3, 3, 3), conv1_bias=(c1,),
                      conv2_weight=(c2, c1, 3, 3), conv2_bias=(c2,))
    cls_in = feat_c
    if lca_cfg is not None:
        cls_in = lca_cfg.embed_dim
        shapes.update(fc_weight=(cls_in, feat_c), fc_bias=(cls_in,))
    shapes.update(cls_weight=(num_classes, cls_in), cls_bias=(num_classes,))
    return shapes


def build_model(backbone: BackboneConfig, lca_cfg: LcaConfig | None,
                num_classes: int, rng=None, dtype=np.float32) -> Model:
    """Assemble and (if an rng is given) initialize the full model; an
    ``lca_cfg`` of None gives the GAP head.

    With ``rng=None`` every parameter is zero-filled — the checkpoint loader
    uses that path and then overwrites from the file. Biases start at zero;
    conv kernels draw He-uniform and linear weights Glorot, in shape order.
    """
    shapes = param_shapes(backbone, lca_cfg, num_classes)
    m = Model(backbone, lca_cfg, num_classes, dtype)
    for name, shape in shapes.items():
        if rng is None or name.endswith("_bias"):
            data = np.zeros(shape, dtype=dtype)
        elif name.startswith("conv"):
            data = _he_uniform(rng, shape, math.prod(shape[1:]), dtype)
        else:
            data = _glorot(rng, shape, shape[1], shape[0], dtype)
        m._add(name, data)
    return m


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
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        piece = self.blob[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def entry(self):
        raw = self.take(self.u("<H"))
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"parameter name {raw!r} is not UTF-8") from None
        dtype_tag = self.u("<B")
        if dtype_tag != 1:
            raise CheckpointError(f"param {name}: unknown dtype tag {dtype_tag}")
        rank = self.u("<B")
        if rank > 4:  # no parameter has more axes than a conv kernel
            raise CheckpointError(f"param {name}: rank {rank} exceeds 4")
        shape = tuple(self.u("<I") for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        return name, data.astype(np.float32)


def save_checkpoint(model: Model, path, *, velocities: dict, epoch: int,
                    rng_state: bytes) -> None:
    """Write atomically: temp file in the target directory, synced, then rename."""
    if len(rng_state) != 32:
        raise CheckpointError(f"rng state must be 32 bytes, got {len(rng_state)}")
    params = model.parameters()
    out = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for p in params:
        _write_entry(out, p.name, p.data)

    bk = BACKBONE_KINDS.index(model.backbone.kind)
    hk = HEAD_KINDS.index(model.head)
    inc = 1 if (model.lca_cfg and model.lca_cfg.include_one_by_k) else 0
    h, w = model.backbone.input_size
    out.append(struct.pack("<BBBB", bk, hk, inc, 0))
    out.append(struct.pack("<II", h, w))
    out.append(struct.pack(f"<I{len(model.backbone.channels)}I",
                           len(model.backbone.channels), *model.backbone.channels))
    embed = model.lca_cfg.embed_dim if model.lca_cfg else 0
    out.append(struct.pack("<II", embed, model.num_classes))

    # Subset is legal: a frozen backbone keeps no velocity entries.
    if not set(velocities) <= {p.name for p in params}:
        raise CheckpointError("velocity table names params the model does not have")
    out.append(struct.pack("<I", len(velocities)))
    for name in [p.name for p in params if p.name in velocities]:
        _write_entry(out, name, velocities[name])

    out.append(struct.pack("<Q", epoch))
    out.append(rng_state)

    blob = b"".join(out)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass
class LoadedCheckpoint:
    model: Model
    velocities: dict
    epoch: int
    rng_state: bytes


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.u("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")

    entries = [r.entry() for _ in range(r.u("<I"))]

    bk, hk, inc, _pad = (r.u("<B") for _ in range(4))
    if bk >= len(BACKBONE_KINDS) or hk >= len(HEAD_KINDS):
        raise CheckpointError(f"unknown backbone/head tags ({bk}, {hk})")
    h, w = r.u("<I"), r.u("<I")
    channels = tuple(r.u("<I") for _ in range(r.u("<I")))
    embed, num_classes = r.u("<I"), r.u("<I")

    velocities = dict(r.entry() for _ in range(r.u("<I")))
    epoch = r.u("<Q")
    rng_state = r.take(32)
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} trailing bytes")

    try:
        backbone = BackboneConfig(BACKBONE_KINDS[bk], channels, (h, w))
        lca_cfg = LcaConfig(embed, bool(inc)) if HEAD_KINDS[hk] == "lca" else None
        shapes = param_shapes(backbone, lca_cfg, num_classes)
    except ValueError as exc:  # ConfigError, or LcaConfig's own range check
        raise CheckpointError(f"{path}: invalid architecture: {exc}") from None

    # Every shape the architecture fields imply must match a tensor already
    # read from the file before anything is allocated from those fields.
    for name, data in entries:
        if name not in shapes:
            raise CheckpointError(f"checkpoint param {name} is not in the architecture")
        if data.shape != shapes[name]:
            raise CheckpointError(
                f"param {name}: stored shape {data.shape} != expected {shapes[name]}"
            )
    stored = sorted(n for n, _ in entries)
    if stored != sorted(shapes):
        raise CheckpointError(f"checkpoint params {stored} != expected {sorted(shapes)}")
    for name, vel in velocities.items():
        if name not in shapes:
            raise CheckpointError(f"velocity for unknown param {name}")
        if vel.shape != shapes[name]:
            raise CheckpointError(f"velocity {name}: shape {vel.shape} mismatched")

    model = build_model(backbone, lca_cfg, num_classes, rng=None)
    for name, data in entries:
        model.param(name).data[...] = data

    return LoadedCheckpoint(model, velocities, epoch, rng_state)
