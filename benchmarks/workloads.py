"""Benchmark workloads: what each one trains, and its inputs made from a seed.

Every input is generated here, before any timing starts, and written to
files; the library only ever sees those files through a training config.
The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from lcanet.data import synth_glyphs, write_feature_file, write_ppm


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "glyph" (PPM image trees) or "feature" (LCAF feature files)
    epochs: int
    batch_size: int
    lr: float
    classes: int = 8
    train_per_class: int = 64
    test_per_class: int = 16
    aug: bool = False
    map_shape: tuple = ()  # (C, H, W) of generated feature maps
    signal: float = 0.0  # amplitude of the class pattern in feature maps

    @property
    def n_train(self) -> int:
        return self.classes * self.train_per_class

    def steps_per_rep(self) -> int:
        return self.epochs * -(-self.n_train // self.batch_size)


# Three epochs of the glyph recipe: the train loss is past its first-epoch
# transient and agrees across seeds within about 1% (test accuracy is still
# near chance there, which is why it is reported but not gated).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("glyph_lca_train", "glyph", epochs=3, batch_size=32, lr=0.01),
        Workload("glyph_lca_train_aug", "glyph", epochs=3, batch_size=32, lr=0.01, aug=True),
        # Batch 4 gives 26 steps a rep, so a 30 s run times over 100 steps.
        # At lr 0.03 the epoch's mean loss falls from ln 8 to about 1.65 and
        # spreads 0.05 across seeds; at lr 0.1 it fell further but spread 0.13.
        Workload(
            "feature_lca_train", "feature", epochs=1, batch_size=4, lr=0.03,
            train_per_class=13, test_per_class=2, map_shape=(512, 7, 7), signal=2.0,
        ),
    )
}

# Tiny stand-ins with the same structure, for the seconds-long smoke mode.
SMOKE_WORKLOADS = {
    name: replace(
        w, epochs=1, batch_size=4, classes=2, train_per_class=4, test_per_class=2,
        map_shape=(8, 4, 4) if w.kind == "feature" else (),
    )
    for name, w in WORKLOADS.items()
}


def _write_ppm_tree(root: str, ds) -> None:
    for i, (img, label) in enumerate(zip(ds.inputs, ds.labels)):
        cdir = os.path.join(root, ds.class_names[label])
        os.makedirs(cdir, exist_ok=True)
        write_ppm(os.path.join(cdir, f"img_{i:04d}.ppm"), img.transpose(1, 2, 0))


def _feature_split(gen, w: Workload, per_class: int, protos, distractors):
    """Noise maps, each carrying its class pattern and one shared distractor
    pattern on 2x2 windows at random positions."""
    c, h, wd = w.map_shape
    n = w.classes * per_class
    x = gen.standard_normal((n, c, h, wd), dtype=np.float32)
    x *= np.float32(0.5)
    y = np.repeat(np.arange(w.classes), per_class)
    for i in range(n):
        for pattern in (protos[y[i]], distractors[gen.integers(len(distractors))]):
            r, s = gen.integers(0, h - 1), gen.integers(0, wd - 1)
            x[i, :, r : r + 2, s : s + 2] += np.float32(w.signal) * pattern[:, None, None]
    return x, y


def generate(w: Workload, seed: int, root: str) -> dict:
    """Write the workload's train and test inputs under ``root``; return their sizes."""
    if w.kind == "glyph":
        train, test = synth_glyphs(w.classes, w.train_per_class, w.test_per_class, seed)
        _write_ppm_tree(os.path.join(root, "train"), train)
        _write_ppm_tree(os.path.join(root, "test"), test)
        shape = list(train.inputs.shape[1:])
    else:
        gen = np.random.default_rng(seed)
        c = w.map_shape[0]

        def sparse_patterns(k):
            keep = gen.random((k, c)) < 0.125
            return (gen.standard_normal((k, c)) * keep).astype(np.float32)

        protos, distractors = sparse_patterns(w.classes), sparse_patterns(4)
        for split, per_class in (("train", w.train_per_class), ("test", w.test_per_class)):
            x, y = _feature_split(gen, w, per_class, protos, distractors)
            write_feature_file(os.path.join(root, f"{split}.lcaf"), x, y)
        shape = list(w.map_shape)
    return {
        "input_shape": shape,
        "classes": w.classes,
        "train_samples": w.n_train,
        "test_samples": w.classes * w.test_per_class,
        "batch_size": w.batch_size,
        "epochs_per_rep": w.epochs,
        "steps_per_rep": w.steps_per_rep(),
    }


def config_text(w: Workload, seed: int, root: str) -> str:
    """The run config for one training rep; inputs and outputs live under ``root``."""
    lines = [
        f"seed = {seed}",
        f"epochs = {w.epochs}",
        f"batch_size = {w.batch_size}",
        f"lr = {w.lr}",
        "lr_step_epoch = 0",
        "lambda_entropy = 0.1",
        "head = lca",
        "lca.embed_dim = 32",
        f"ckpt.out = {root}/model.lcac",
        f"log.csv = {root}/metrics.csv",
    ]
    if w.kind == "glyph":
        lines += [
            "backbone = tiny_cnn",
            "channels = 16,32",
            f"data.train = {root}/train",
            f"data.test = {root}/test",
        ]
    else:
        c, h, wd = w.map_shape
        lines += [
            "backbone = external_features",
            f"channels = {c}",
            f"input_size = {h}x{wd}",
            "data.format = lcaf",
            f"data.train = {root}/train.lcaf",
            f"data.test = {root}/test.lcaf",
        ]
    if w.aug:
        lines += [
            "aug.translate_px = 2",
            "aug.brightness = 0.1",
            "aug.noise_sigma = 0.05",
            "aug.hflip = true",
        ]
    return "\n".join(lines) + "\n"
