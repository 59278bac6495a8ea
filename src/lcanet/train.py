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
from stat import S_ISDIR

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
    checkpoint writes) would otherwise repeat. Kept rows whose epochs do not
    rise strictly are refused; gaps are kept.
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
        kept = [(int(ln.split(",", 1)[0]), ln) for ln in lines[1:]]
    except ValueError:
        raise DataError(f"{path}: a metrics row does not start with an epoch number") from None
    kept = [(e, ln) for e, ln in kept if e < epoch]
    for (prev, _), (e, _) in zip(kept, kept[1:]):
        if e <= prev:
            raise DataError(f"{path}: the row for epoch {e} follows the row for epoch {prev}; "
                            f"not resuming into it")
    return [ln for _, ln in kept]


def _check_outputs(cfg: RunConfig) -> None:
    """Refuse ``ckpt.out`` and ``log.csv`` before any file is opened: when
    they, or the ``<path>.tmp`` files their writes go through, name the same
    file as each other or as a data path, or lie inside a data directory
    (``ConfigError``); and when one is a directory or its directory does not
    exist (``DataError``). A file is known by its directory's inode and its
    name, and by its own inode where it exists (a hard link), so neither a
    spelling nor a symbolic link hides an alias. One ``os.stat`` per path."""
    named = (("ckpt.out", cfg.ckpt_out), ("log.csv", cfg.log_csv))
    outs = [out for key, path in named
            for out in ((key, path), (f"{key} temp file", f"{path}.tmp"))]
    ins = [(k, p) for k, p in (("data.train", cfg.data_train), ("data.test", cfg.data_test)) if p]
    where = {path: os.path.dirname(path) or "." for _, path in outs + ins}
    ids, dirs = {}, set()
    for path in {*where, *where.values()}:
        try:
            st = os.stat(path)
        except OSError:
            continue
        ids[path] = st.st_dev, st.st_ino
        if S_ISDIR(st.st_mode):
            dirs.add(path)
    # A path that does not exist stands for itself.
    known = {path: {(ids.get(d, d), os.path.basename(path)), ids.get(path, path)}
             for path, d in where.items()}
    trees = [(k, p, os.path.realpath(p)) for k, p in ins if p in dirs]
    for i, (key, path) in enumerate(outs):
        for other, other_path in outs[i + 1:] + ins:
            if known[path] & known[other_path]:
                raise ConfigError(f"{key} {path} would overwrite {other} {other_path}")
    for key, path in named:
        for other, other_path, tree in trees:
            if os.path.commonpath([os.path.realpath(where[path]), tree]) == tree:
                raise ConfigError(f"{key} {path} lies inside {other} {other_path}")
        if path in dirs:
            raise DataError(f"{key} {path} is a directory")
        if where[path] not in dirs:
            raise DataError(f"{key} {path}: no directory {where[path]}")


def run_training(cfg: RunConfig, resume: str | None = None) -> TrainSummary:
    _check_outputs(cfg)
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

    # Written whole: the header and kept rows now, and again after each epoch.
    csv = CSV_HEADER + "\n" + ("".join(_rows_before(cfg.log_csv, start_epoch)) if loaded else "")
    data_mod._replace_file(cfg.log_csv, lambda fh: fh.write(csv.encode()))
    last_row = None
    for epoch in range(start_epoch, cfg.epochs):
        if cfg.backbone == "external_features" and epoch > start_epoch:
            # LCAF maps are read from the files as the epoch runs: a file
            # changed since loading is refused here (the first epoch follows
            # the load's own header reads), and one cut short mid-epoch at
            # its next batch.
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
        csv += row + "\n"
        data_mod._replace_file(cfg.log_csv, lambda fh: fh.write(csv.encode()))
        last_row = (loss_sum / seen, train_acc, test_acc)

        model_mod.save_checkpoint(
            model,
            cfg.ckpt_out,
            velocities=optim.velocity,
            epoch=epoch + 1,
            rng_state=train_rng.state_bytes(),
        )

    return TrainSummary(
        epochs_run=cfg.epochs - start_epoch,
        final_train_loss=last_row[0],
        final_train_acc=last_row[1],
        final_test_acc=last_row[2],
        csv_path=cfg.log_csv,
        ckpt_path=cfg.ckpt_out,
    )
