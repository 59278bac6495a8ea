"""A task that global average pooling cannot solve and the LCA head can.

Each map has 8 channels on 4x4 cells with a zero background. One cell holds
u (1 on channels 0-3) and another holds v (1 on channels 4-7). In class 0
the two cells share an edge; in class 1 they do not. Every map has the same
cell mean, (u + v) / 16, so a GAP head gives every map the same logits and
scores exactly 50% on a balanced test split. The LCA head's 1x2 and 2x1
windows have the mean (u + v) / 2 only in class 0: in class 1 any window
holding both cells covers at least 3 cells, so a ReLU with a bias can tell
the classes apart.

Only the test accuracy is asserted: the train accuracy is a running figure
over each epoch's batches, taken while the weights move.
"""

import numpy as np
import pytest

from lcanet import lca
from lcanet.config import parse_config
from lcanet.data import write_feature_file
from lcanet.train import run_training

SIDE, CHANNELS = 4, 8


def _maps(rng, per_class):
    """[2*per_class, 8, 4, 4] maps, class 0 first, and their labels."""
    cells = [(r, c) for r in range(SIDE) for c in range(SIDE)]
    feats = np.zeros((2 * per_class, CHANNELS, SIDE, SIDE), dtype=np.float32)
    labels = np.repeat([0, 1], per_class)
    for i, label in enumerate(labels):
        while True:
            (r1, c1), (r2, c2) = (cells[j] for j in rng.choice(len(cells), 2, replace=False))
            if (abs(r1 - r2) + abs(c1 - c2) == 1) == (label == 0):
                break
        feats[i, : CHANNELS // 2, r1, c1] = 1.0  # u
        feats[i, CHANNELS // 2 :, r2, c2] = 1.0  # v
    return feats, labels


def _test_accuracy(tmp_path, head, seed):
    rng = np.random.default_rng(seed)
    for split, per_class in (("train", 100), ("test", 50)):
        write_feature_file(tmp_path / f"{split}.lcaf", *_maps(rng, per_class))
    cfg = parse_config(f"""
        seed = {seed}
        epochs = 60
        lr = 0.5
        lambda_entropy = 0
        head = {head}
        lca.embed_dim = 32
        backbone = external_features
        channels = {CHANNELS}
        data.format = lcaf
        data.train = {tmp_path / "train.lcaf"}
        data.test = {tmp_path / "test.lcaf"}
        ckpt.out = {tmp_path / head}.lcac
        log.csv = {tmp_path / head}.csv
    """)
    return run_training(cfg).final_test_acc


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lca_solves_adjacency_and_gap_scores_chance(tmp_path, seed):
    assert _test_accuracy(tmp_path, "gap", seed) == 50.0
    assert _test_accuracy(tmp_path, "lca", seed) >= 95.0


def test_a_head_that_averages_all_cells_fails_the_task(tmp_path, monkeypatch):
    """The LCA assertion above fails when the head's one window is the whole map."""

    def whole_map(h, w, dtype):
        return np.full((1, h * w), 1.0 / (h * w), dtype=dtype)

    monkeypatch.setattr(lca, "pooling_matrix", whole_map)
    assert _test_accuracy(tmp_path, "lca", 1) < 95.0
