"""Flat key=value run configuration.

UTF-8 text, one ``key = value`` per line, ``#`` comments (full line, or
inline when the ``#`` follows whitespace). Unknown keys are a hard error so
a typo can never silently fall back to a default. Every key has a default;
an empty file is a valid config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Bad key, bad value, or an inconsistent combination."""


def _int(s):
    return int(s, 10)


def _float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("non-finite")
    return v


_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no"}


def _bool(s):
    low = s.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _size(s):
    parts = s.lower().split("x")
    if len(parts) == 1:
        n = _int(parts[0])
        return (n, n)
    if len(parts) == 2:
        return (_int(parts[0]), _int(parts[1]))
    raise ValueError(f"not a size: {s!r}")


def _ints(s):
    return tuple(_int(p.strip()) for p in s.split(","))


def _str(s):
    return s


@dataclass
class RunConfig:
    seed: int = 0
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_step_epoch: int = 20
    lr_step_factor: float = 0.1
    lambda_entropy: float = 0.1
    head: str = "lca"
    lca_embed_dim: int = 32
    lca_include_one_by_k: bool = True
    backbone: str = "tiny_cnn"
    input_size: tuple = (16, 16)
    channels: tuple = (16, 32)
    freeze_backbone: bool = False
    data_train: str = ""
    data_test: str = ""
    data_format: str = "ppm"
    aug_translate_px: int = 0
    aug_brightness: float = 0.0
    aug_noise_sigma: float = 0.0
    aug_hflip: bool = False
    ckpt_out: str = "ckpt.lcac"
    log_csv: str = "log.csv"

    @property
    def schedule(self):
        return ((self.lr_step_epoch, self.lr_step_factor),) if self.lr_step_epoch > 0 else ()


# config-file key -> (attribute, value parser)
_KEYS = {
    "seed": ("seed", _int),
    "epochs": ("epochs", _int),
    "batch_size": ("batch_size", _int),
    "lr": ("lr", _float),
    "momentum": ("momentum", _float),
    "weight_decay": ("weight_decay", _float),
    "lr_step_epoch": ("lr_step_epoch", _int),
    "lr_step_factor": ("lr_step_factor", _float),
    "lambda_entropy": ("lambda_entropy", _float),
    "head": ("head", _str),
    "lca.embed_dim": ("lca_embed_dim", _int),
    "lca.include_one_by_k": ("lca_include_one_by_k", _bool),
    "backbone": ("backbone", _str),
    "input_size": ("input_size", _size),
    "channels": ("channels", _ints),
    "train.freeze_backbone": ("freeze_backbone", _bool),
    "data.train": ("data_train", _str),
    "data.test": ("data_test", _str),
    "data.format": ("data_format", _str),
    "aug.translate_px": ("aug_translate_px", _int),
    "aug.brightness": ("aug_brightness", _float),
    "aug.noise_sigma": ("aug_noise_sigma", _float),
    "aug.hflip": ("aug_hflip", _bool),
    "ckpt.out": ("ckpt_out", _str),
    "log.csv": ("log_csv", _str),
}


def _strip_comment(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    for i, ch in enumerate(line):
        if ch == "#" and i > 0 and line[i - 1] in " \t":
            return line[:i]
    return line


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        attr, parse = _KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _validate(cfg: RunConfig) -> None:
    def need(ok: bool, key: str, why: str):
        if not ok:
            raise ConfigError(f"config key {key}: {why}")

    need(cfg.epochs >= 1, "epochs", f"must be >= 1, got {cfg.epochs}")
    need(cfg.batch_size >= 1, "batch_size", f"must be >= 1, got {cfg.batch_size}")
    need(cfg.lr > 0, "lr", f"must be > 0, got {cfg.lr}")
    need(0 <= cfg.momentum < 1, "momentum", f"must be in [0,1), got {cfg.momentum}")
    need(cfg.weight_decay >= 0, "weight_decay", f"must be >= 0, got {cfg.weight_decay}")
    need(cfg.lr_step_epoch >= 0, "lr_step_epoch", f"must be >= 0, got {cfg.lr_step_epoch}")
    need(cfg.lr_step_factor > 0, "lr_step_factor", f"must be > 0, got {cfg.lr_step_factor}")
    need(cfg.lambda_entropy >= 0, "lambda_entropy", f"must be >= 0, got {cfg.lambda_entropy}")
    need(cfg.head in ("lca", "gap"), "head", f"must be lca or gap, got {cfg.head!r}")
    need(cfg.lca_embed_dim >= 1, "lca.embed_dim", f"must be >= 1, got {cfg.lca_embed_dim}")
    need(cfg.backbone in ("tiny_cnn", "external_features"), "backbone",
         f"must be tiny_cnn or external_features, got {cfg.backbone!r}")
    need(all(n >= 1 for n in cfg.input_size), "input_size",
         f"dimensions must be >= 1, got {cfg.input_size}")
    need(len(cfg.channels) >= 1 and all(c >= 1 for c in cfg.channels), "channels",
         f"must be positive counts, got {cfg.channels}")
    need(cfg.data_format in ("ppm", "lcaf"), "data.format",
         f"must be ppm or lcaf, got {cfg.data_format!r}")
    need(cfg.aug_translate_px >= 0, "aug.translate_px",
         f"must be >= 0, got {cfg.aug_translate_px}")
    need(0 <= cfg.aug_brightness < 1, "aug.brightness",
         f"must be in [0,1), got {cfg.aug_brightness}")
    need(cfg.aug_noise_sigma >= 0, "aug.noise_sigma",
         f"must be >= 0, got {cfg.aug_noise_sigma}")
