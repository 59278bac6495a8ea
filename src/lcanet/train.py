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
from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod, losses, model as model_mod
from .config import ConfigError, RunConfig
from .data import AugmentConfig, DataError, augment, batches
from .optim import SGD
from .rng import Rng
from .tensor import NumericsError, Tensor, backward, no_grad

CSV_HEADER = "epoch,train_loss,train_nll,train_entropy,train_acc,test_acc,lr,wall_seconds"


@dataclass
class EvalResult:
    accuracy: float  # fraction in [0,1]
    per_class: list  # (class index, correct, total)


@dataclass
class TrainSummary:
    epochs_run: int
    final_train_loss: float
    final_train_acc: float  # percent
    final_test_acc: float  # percent
    csv_path: str
    ckpt_path: str


def load_splits(arch: model_mod.Architecture, splits: dict) -> list:
    """The datasets a model of ``arch`` reads, one per ``{what: path}``
    entry, in order: PPM class trees resized to its input size for tiny_cnn,
    LCAF feature files for external_features. An LCAF header whose (C, H, W)
    is not ``arch.input_shape()`` is refused before any payload is read."""
    if arch.backbone == "tiny_cnn":
        return [data_mod.load_image_dir(path, arch.input_size) for path in splits.values()]
    want = arch.input_shape()
    for what, path in splits.items():
        got = data_mod.read_feature_header(path)[1:]
        if got != want:
            raise DataError(f"{what} split maps are {got} (channels, H, W); the model reads {want}")
    return [data_mod.load_feature_file(path) for path in splits.values()]


def _data_path(cfg: RunConfig, which: str) -> str:
    path = getattr(cfg, f"data_{which}")
    if not path:
        raise DataError(f"config key data.{which} is not set")
    return path


def check_split(ds: data_mod.Dataset, num_classes: int, what: str) -> None:
    """Refuse a PPM tree whose class count is not ``num_classes``, or labels that reach it."""
    if ds.class_names is not None and len(ds.class_names) != num_classes:
        raise DataError(f"{what} split has {len(ds.class_names)} class directories, "
                        f"but the model has {num_classes} classes")
    if len(ds) and int(ds.labels.max()) >= num_classes:
        raise DataError(f"{what} split labels reach {int(ds.labels.max())}, "
                        f"but the model has {num_classes} classes")


def evaluate(model: model_mod.Model, ds: data_mod.Dataset, batch_size: int = 256) -> EvalResult:
    """Accuracy over ``ds``; a non-finite logit is a ``NumericsError`` naming
    its sample, not a prediction."""
    k = model.arch.num_classes
    correct = np.zeros(k, dtype=np.int64)
    start = 0
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for b in batches(ds, batch_size):
            logits = model.forward(Tensor(b.inputs)).data
            bad = ~np.isfinite(logits).all(axis=1)
            if bad.any():
                raise NumericsError(f"non-finite logits for sample {start + int(bad.argmax())}")
            start += len(b)
            preds = logits.argmax(axis=1)
            correct += np.bincount(b.labels[preds == b.labels], minlength=k)
    total = np.bincount(ds.labels, minlength=k)
    acc = float(correct.sum()) / len(ds) if len(ds) else 0.0
    per_class = [(c, int(correct[c]), int(total[c])) for c in range(k)]
    return EvalResult(acc, per_class)


def _rows_before(path: str, epoch: int) -> list:
    """Rows of the metrics CSV at ``path`` for the epochs before ``epoch``.

    A resumed run restarts at its checkpoint's epoch; rows from that epoch
    on (a run that went further, or one that crashed between its CSV and
    checkpoint writes) would otherwise repeat.
    """
    if not os.path.exists(path):
        return []
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = fh.read().splitlines(keepends=True)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text; not resuming into it") from None
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

    # Settle the architecture before any payload is read; external_features
    # takes H x W from the training file's header. 2 is the fewest classes.
    input_size = cfg.input_size
    if cfg.backbone == "external_features":
        input_size = data_mod.read_feature_header(_data_path(cfg, "train"))[2:]
    arch = model_mod.Architecture(cfg.backbone, tuple(cfg.channels), input_size,
                                  cfg.lca_embed_dim if cfg.head == "lca" else None, 2)

    splits = {"training": _data_path(cfg, "train"), "test": _data_path(cfg, "test")}
    train_ds, test_ds = load_splits(arch, splits)
    if len(train_ds) < 1:
        raise DataError("training split is empty")
    # Image trees number their classes by sorted directory name.
    if test_ds.class_names != train_ds.class_names:
        raise DataError(f"test split classes {test_ds.class_names} are not the training "
                        f"split's {train_ds.class_names}")

    num_classes = int(train_ds.labels.max()) + 1
    if num_classes < 2:
        raise DataError("training split holds a single class; need at least 2")
    # The LCAF twin of an empty class directory. K distinct labels leave one
    # of the classes 0..K without a sample, so the first missing class is at
    # most K; nothing is sized by the largest label, which may be 2**32 - 1.
    present = set(train_ds.labels.tolist())
    if len(present) < num_classes:
        missing = min(set(range(len(present) + 1)) - present)
        raise DataError(f"training split has no sample of class {missing}; "
                        f"its labels must cover 0..{num_classes - 1}")
    check_split(test_ds, num_classes, "test")
    arch = replace(arch, num_classes=num_classes)

    loaded = None
    if resume is None:
        model = model_mod.build_model(arch, rng=init_rng)
    else:
        loaded = model_mod.load_checkpoint(resume)
        model = loaded.model
        if model.arch != arch:
            raise model_mod.CheckpointError(
                f"checkpoint architecture {model.arch} does not match config {arch}")
        train_rng = Rng.from_state_bytes(loaded.rng_state)
    start_epoch = loaded.epoch if loaded else 0
    if start_epoch >= cfg.epochs:
        raise ConfigError(
            f"checkpoint already covers {start_epoch} epochs; config asks for {cfg.epochs}"
        )

    optim = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum,
                weight_decay=cfg.weight_decay)
    if loaded:
        for name, vel in loaded.velocities.items():
            optim.velocity[name][...] = vel

    aug_cfg = AugmentConfig(
        translate_px=cfg.aug_translate_px,
        brightness_delta=cfg.aug_brightness,
        gauss_noise_sigma=cfg.aug_noise_sigma,
        hflip=cfg.aug_hflip,
    )

    kept = "".join(_rows_before(cfg.log_csv, start_epoch)) if loaded else ""
    data_mod._replace_file(cfg.log_csv, lambda fh: fh.write(f"{CSV_HEADER}\n{kept}".encode()))
    csv = open(cfg.log_csv, "a", encoding="utf-8", newline="\n")
    try:
        last_row = None
        for epoch in range(start_epoch, cfg.epochs):
            if cfg.backbone == "external_features":
                # LCAF maps are read from the files as the epoch runs: a file
                # changed since loading is refused here, and one cut short
                # mid-epoch at its next batch.
                for path, ds in zip(splits.values(), (train_ds, test_ds)):
                    if data_mod.read_feature_header(path) != ds.inputs.shape:
                        raise DataError(f"{path}: LCAF header changed since the file was loaded")
            t0 = time.perf_counter()
            optim.lr = cfg.lr * cfg.lr_step_factor if 0 < cfg.lr_step_epoch <= epoch else cfg.lr

            loss_sum = nll_sum = ent_sum = 0.0
            hits = seen = 0
            for step, raw in enumerate(batches(train_ds, cfg.batch_size, rng=train_rng)):
                b = augment(raw, aug_cfg, train_rng)
                x = Tensor(b.inputs)
                # Divergence is detected by the isfinite check below and
                # reported as NumericsError; numpy's overflow/NaN warnings on
                # the way there are redundant noise.
                with np.errstate(over="ignore", invalid="ignore"):
                    logits = model.forward(x)
                    loss, nll, ent = losses.loss_terms(logits, b.labels, cfg.lambda_entropy)

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
                bad = next((p.name for p in optim.params if not np.isfinite(p.data).all()), None)
                if bad is not None:
                    raise NumericsError(
                        f"non-finite parameter {bad} after the update at epoch {epoch}, step {step}"
                    )

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
