"""Training loop: deterministic epochs, CSV metrics, atomic checkpoints.

Determinism contract: a run is a pure function of (config, seed). One master
rng derives an init stream (parameter draws) and a train stream (shuffles
and augmentation draws, in pinned order); the train stream's state rides in
every checkpoint, so a resumed run replays the exact same batch sequence the
uninterrupted run would have seen. All epoch accumulators are float64 and
sample-weighted.

The CSV holds one row per epoch under a fixed header. ``wall_seconds`` is
honest wall-clock time and is the only column that varies between otherwise
identical runs.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import data as data_mod, losses, model as model_mod
from .config import ConfigError, RunConfig
from .data import AugmentConfig, DataError, augment, batches
from .lca import LcaConfig
from .optim import SGD
from .rng import Rng
from .tensor import NumericsError, Tensor, backward, no_grad

CSV_HEADER = "epoch,train_loss,train_nll,train_entropy,train_acc,test_acc,lr,wall_seconds"


@dataclass
class EvalResult:
    accuracy: float  # fraction in [0,1]
    per_class: list  # (class index, correct, total)
    n: int


@dataclass
class TrainSummary:
    epochs_run: int
    final_train_loss: float
    final_train_acc: float  # percent
    final_test_acc: float  # percent
    csv_path: str
    ckpt_path: str


def _load_split(cfg: RunConfig, path: str, which: str) -> data_mod.Dataset:
    if not path:
        raise DataError(f"config key data.{which} is not set")
    if cfg.data_format == "ppm":
        return data_mod.load_image_dir(path, cfg.input_size)
    return data_mod.load_feature_file(path)


def _check_mode(cfg: RunConfig, ds: data_mod.Dataset) -> None:
    if cfg.backbone == "tiny_cnn" and ds.mode != "image":
        raise ConfigError("backbone tiny_cnn needs image data (data.format=ppm)")
    if cfg.backbone == "external_features" and ds.mode != "feature":
        raise ConfigError("backbone external_features needs data.format=lcaf")


def build_from_config(cfg: RunConfig, num_classes: int, feat_hw=None, rng=None):
    """Construct the model a RunConfig describes; ``feat_hw`` is the feature
    map extent an ``external_features`` backbone reads from its data."""
    backbone = model_mod.BackboneConfig(cfg.backbone, tuple(cfg.channels),
                                        feat_hw or cfg.input_size)
    lca_cfg = None
    if cfg.head == "lca":
        lca_cfg = LcaConfig(cfg.lca_embed_dim, cfg.lca_include_one_by_k)
    return model_mod.build_model(backbone, lca_cfg, num_classes, rng=rng)


def evaluate(model: model_mod.Model, ds: data_mod.Dataset, batch_size: int = 256) -> EvalResult:
    k = model.num_classes
    correct = np.zeros(k, dtype=np.int64)
    total = np.zeros(k, dtype=np.int64)
    with no_grad():
        for b in batches(ds, batch_size):
            preds = model.forward(Tensor(b.inputs)).data.argmax(axis=1)
            for cls in range(k):
                sel = b.labels == cls
                total[cls] += sel.sum()
                correct[cls] += (preds[sel] == cls).sum()
    n = int(total.sum())
    acc = float(correct.sum()) / n if n else 0.0
    per_class = [(c, int(correct[c]), int(total[c])) for c in range(k)]
    return EvalResult(acc, per_class, n)


def _rows_before(path: str, epoch: int) -> list:
    """Rows of the metrics CSV at ``path`` for the epochs before ``epoch``.

    A resumed run restarts at its checkpoint's epoch; rows from that epoch
    on (a run that went further, or one that crashed between its CSV and
    checkpoint writes) would otherwise repeat.
    """
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = fh.read().splitlines(keepends=True)
    if lines and lines[0].rstrip("\n") != CSV_HEADER:
        raise DataError(f"{path}: header is not the metrics CSV header; not resuming into it")
    try:
        return [ln for ln in lines[1:] if int(ln.split(",", 1)[0]) < epoch]
    except ValueError:
        raise DataError(f"{path}: a metrics row does not start with an epoch number") from None


def run_training(cfg: RunConfig, resume: str | None = None) -> TrainSummary:
    master = Rng(cfg.seed)
    init_rng = master.spawn()
    train_rng = master.spawn()

    train_ds = _load_split(cfg, cfg.data_train, "train")
    test_ds = _load_split(cfg, cfg.data_test, "test")
    _check_mode(cfg, train_ds)
    _check_mode(cfg, test_ds)
    if len(train_ds) < 1:
        raise DataError("training split is empty")

    num_classes = int(train_ds.labels.max()) + 1
    if num_classes < 2:
        raise DataError("training split holds a single class; need at least 2")
    if len(test_ds) and int(test_ds.labels.max()) >= num_classes:
        raise DataError(
            f"test split labels reach {int(test_ds.labels.max())}, "
            f"but the training split defines {num_classes} classes"
        )

    feat_hw = tuple(train_ds.inputs.shape[2:]) if cfg.backbone == "external_features" else None
    model = build_from_config(cfg, num_classes, feat_hw=feat_hw, rng=init_rng)

    start_epoch = 0
    resume_state = None
    if resume is not None:
        loaded = model_mod.load_checkpoint(resume)
        same = (
            loaded.model.backbone == model.backbone
            and loaded.model.lca_cfg == model.lca_cfg
            and loaded.model.num_classes == model.num_classes
        )
        if not same:
            raise model_mod.CheckpointError(
                f"checkpoint architecture does not match config "
                f"({loaded.model.backbone}/{loaded.model.head} vs {model.backbone}/{model.head})"
            )
        model = loaded.model
        start_epoch = loaded.epoch
        resume_state = loaded
        train_rng = Rng.from_state_bytes(loaded.rng_state)
    if start_epoch >= cfg.epochs:
        raise ConfigError(
            f"checkpoint already covers {start_epoch} epochs; config asks for {cfg.epochs}"
        )

    if cfg.freeze_backbone:
        for p in model.parameters():
            if p.name.startswith("conv"):
                p.requires_grad = False

    optim = SGD(
        [p for p in model.parameters() if p.requires_grad],
        lr=cfg.lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        schedule=cfg.schedule,
    )
    if resume_state is not None:
        for name, vel in resume_state.velocities.items():
            if name in optim.velocity:
                optim.velocity[name][...] = vel

    aug_cfg = AugmentConfig(
        translate_px=cfg.aug_translate_px,
        brightness_delta=cfg.aug_brightness,
        gauss_noise_sigma=cfg.aug_noise_sigma,
        hflip=cfg.aug_hflip,
    )
    loss_cfg = losses.LossConfig(lambda_entropy=cfg.lambda_entropy)

    kept = _rows_before(cfg.log_csv, start_epoch) if resume is not None else []
    tmp = f"{cfg.log_csv}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n" + "".join(kept))
    os.replace(tmp, cfg.log_csv)
    csv = open(cfg.log_csv, "a", encoding="utf-8", newline="\n")
    try:
        last_row = None
        for epoch in range(start_epoch, cfg.epochs):
            t0 = time.perf_counter()
            optim.apply_schedule(epoch)

            loss_sum = nll_sum = ent_sum = 0.0
            hits = seen = 0
            for step, raw in enumerate(batches(train_ds, cfg.batch_size, rng=train_rng)):
                b = augment(raw, aug_cfg, train_rng) if raw.mode == "image" else raw
                x = Tensor(b.inputs)
                # Divergence is detected by the isfinite check below and
                # reported as NumericsError; numpy's overflow/NaN warnings on
                # the way there are redundant noise.
                with np.errstate(over="ignore", invalid="ignore"):
                    logits = model.forward(x)
                    loss, nll, ent = losses.loss_terms(logits, b.labels, loss_cfg)

                lv, nv, ev = loss.item(), nll.item(), ent.item()
                if not math.isfinite(lv):
                    raise NumericsError(
                        f"non-finite training loss at epoch {epoch}, step {step}"
                    )
                bs = len(b.labels)
                loss_sum += lv * bs
                nll_sum += nv * bs
                ent_sum += ev * bs
                hits += int((logits.data.argmax(axis=1) == b.labels).sum())
                seen += bs

                with np.errstate(over="ignore", invalid="ignore"):
                    backward(loss)
                    optim.step()

            train_acc = 100.0 * hits / seen
            test_acc = 100.0 * evaluate(model, test_ds, cfg.batch_size).accuracy
            wall = time.perf_counter() - t0
            # 8 decimals on the loss columns: the row must satisfy
            # loss == nll - lambda*entropy within 1e-6 even after each column
            # is rounded independently.
            row = (
                f"{epoch},{loss_sum / seen:.8f},{nll_sum / seen:.8f},"
                f"{ent_sum / seen:.8f},{train_acc:.4f},{test_acc:.4f},"
                f"{optim.lr:.8g},{wall:.3f}"
            )
            csv.write(row + "\n")
            csv.flush()
            last_row = (loss_sum / seen, train_acc, test_acc)

            model_mod.save_checkpoint(
                model,
                cfg.ckpt_out,
                velocities=optim.velocity,
                epoch=epoch + 1,
                rng_state=train_rng.state_bytes(),
            )
    finally:
        csv.close()

    return TrainSummary(
        epochs_run=cfg.epochs - start_epoch,
        final_train_loss=last_row[0],
        final_train_acc=last_row[1],
        final_test_acc=last_row[2],
        csv_path=cfg.log_csv,
        ckpt_path=cfg.ckpt_out,
    )
