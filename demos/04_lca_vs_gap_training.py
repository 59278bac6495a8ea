"""Train the local-concepts head and global average pooling on a task only
local structure can solve, and compare test accuracy.

Each 8-channel 4x4 feature map holds two marks on a zero background: u (1
on channels 0-3) in one cell and v (1 on channels 4-7) in another. In class
0 the two cells share an edge; in class 1 they do not. Every map has the
same mean over its cells, so global average pooling hands the classifier
one vector for every map and can only guess: it scores exactly 50%. The
local-concepts head also pools 1x2 and 2x1 windows, and only in class 0
does a window of two cells hold both marks, so it learns the task. Takes
about two seconds on one core.
"""

import tempfile
from pathlib import Path

import numpy as np

from lcanet.config import parse_config
from lcanet.data import write_feature_file
from lcanet.train import run_training

CONFIG = """
seed = 1
epochs = 60
lr = 0.5
lambda_entropy = 0
lca.embed_dim = 32
backbone = external_features
channels = 8
data.format = lcaf
data.train = {root}/train.lcaf
data.test = {root}/test.lcaf
ckpt.out = {root}/{head}.lcac
log.csv = {root}/{head}.csv
head = {head}
"""


def adjacency_maps(rng, per_class):
    """per_class maps of class 0 (marks share an edge), then of class 1."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    feats = np.zeros((2 * per_class, 8, 4, 4), dtype=np.float32)
    labels = np.repeat([0, 1], per_class)
    for i, label in enumerate(labels):
        while True:
            (r1, c1), (r2, c2) = (cells[j] for j in rng.choice(16, 2, replace=False))
            if (abs(r1 - r2) + abs(c1 - c2) == 1) == (label == 0):
                break
        feats[i, :4, r1, c1] = 1.0
        feats[i, 4:, r2, c2] = 1.0
    return feats, labels


rng = np.random.default_rng(1)
results = {}
with tempfile.TemporaryDirectory(prefix="lcanet_demo_") as tmp:
    root = Path(tmp)
    write_feature_file(root / "train.lcaf", *adjacency_maps(rng, 100))
    write_feature_file(root / "test.lcaf", *adjacency_maps(rng, 50))
    for head in ("lca", "gap"):
        summary = run_training(parse_config(CONFIG.format(root=root, head=head)))
        results[head] = summary.final_test_acc
        print(f"{head}: test {summary.final_test_acc:.1f}%")

delta = results["lca"] - results["gap"]
print(f"\nlocal-concepts head vs global pooling on test: {delta:+.1f} points")
