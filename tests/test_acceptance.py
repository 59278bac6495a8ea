"""Acceptance gate: the seven shipping checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Criterion 5 trains two real models on the synthetic glyph
corpus and is the slow one (a couple of minutes); everything else is
seconds. Expected values come from independent oracles computed inside
this file (brute-force window enumeration, closed-form loss values, hand
arithmetic), never from the library under test.
"""

import math
import shutil
import time
from collections import Counter

import numpy as np
import pytest

from lcanet import losses, tensor as T
from lcanet.cli import main as lcanet_main
from lcanet.config import load_config
from lcanet.data import batches, synth_glyphs
from lcanet.gradcheck import run_suite
from lcanet.lca import EmptyKernelError, concept_count, concept_vectors, lca_forward
from lcanet.losses import LossConfig
from lcanet.model import load_checkpoint, save_checkpoint
from lcanet.rng import Rng
from lcanet.tensor import Parameter, Tensor, backward
from lcanet.train import run_training


# --- criterion 1: gradient suite ------------------------------------------

def test_criterion_1_gradient_suite():
    """Every op, the LCA layer, both losses and the end-to-end models agree
    with central finite differences to < 1e-5 in f64 over 10 seeds, < 60 s."""
    t0 = time.perf_counter()
    results = run_suite(seed=0, n_seeds=10)
    wall = time.perf_counter() - t0

    names = {r.name for r in results}
    required = {
        "matmul", "conv2d", "avgpool2d", "maxpool2d", "relu", "log_softmax",
        "elementwise", "bias_add", "shape_ops", "reductions",
        "lca_layer", "nll_loss", "entropy", "max_entropy_loss",
        "e2e_tiny_gap", "e2e_tiny_lca",
    }
    assert required <= names, f"missing checks: {sorted(required - names)}"
    for r in results:
        assert r.passed and r.max_rel < 1e-5, f"{r.name}: max_rel={r.max_rel:.3e}"
    assert wall < 60.0, f"suite took {wall:.1f}s"


# --- criterion 2: combinatorial oracle -------------------------------------

def _brute_windows(h, w):
    """Independent enumeration: every placement of every kernel except 1x1."""
    n = 0
    for kh in range(1, h + 1):
        for kw in range(1, w + 1):
            if (kh, kw) == (1, 1):
                continue
            for _i in range(h - kh + 1):
                for _j in range(w - kw + 1):
                    n += 1
    return n


def _taped_positions(out, h, w):
    """Count the pooling windows recorded on the tape behind ``out``.

    The head pools an HxW map with one constant matrix operand of a
    matmul: one row per concept vector fed to the shared embedding, holding
    its window's weights over the H*W map cells. Every row must be one window — equal
    weights 1/area on a rectangle of cells, not a single cell — and no
    window may appear twice, so the row count measures what the forward
    actually pooled, independent of its own bookkeeping.
    """
    pools, seen, stack = [], set(), [out]
    while stack:
        t = stack.pop()
        node = t.node
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "matmul" and not node.parents[0].requires_grad:
            pools.append(node.parents[0].data)
        stack.extend(node.parents)
    assert len(pools) == 1, f"expected one constant pooling operand, found {len(pools)}"
    a = pools[0]
    assert a.shape[1] == h * w
    windows = set()
    for row in a:
        cells = np.flatnonzero(row).tolist()
        rs = sorted({k // w for k in cells})
        cs = sorted({k % w for k in cells})
        assert len(cells) == len(rs) * len(cs) > 1, "not a window larger than 1x1"
        assert rs == list(range(rs[0], rs[-1] + 1)) and cs == list(range(cs[0], cs[-1] + 1))
        np.testing.assert_allclose(row[cells], 1.0 / len(cells), rtol=1e-6)
        windows.add(tuple(cells))
    assert len(windows) == len(a), "a window is pooled twice"
    return len(a)


def test_criterion_2_concept_count_matches_enumeration():
    for h in range(1, 9):
        for w in range(1, 9):
            expected = _brute_windows(h, w)
            if expected == 0:  # only the 1x1 map; no admissible kernel exists
                with pytest.raises(EmptyKernelError):
                    concept_count(h, w)
                continue
            assert concept_count(h, w) == expected, (h, w)

    assert concept_count(2, 2) == 5
    assert concept_count(3, 3) == 27
    assert concept_count(8, 8) == 1232

    # the forward pass materializes exactly that many concept vectors
    rng = Rng(0)
    for h, w in ((2, 2), (3, 3), (5, 4), (8, 8)):
        fm = rng.uniform_array((2, 2, h, w), -1.0, 1.0)
        assert concept_vectors(fm).shape[1] == _brute_windows(h, w)
        fc_weight = Parameter("fc_weight", rng.uniform_array((3, 2), -1.0, 1.0))
        fc_bias = Parameter("fc_bias", np.zeros(3, dtype=np.float32))
        out = lca_forward(Tensor(fm, requires_grad=True), fc_weight, fc_bias)
        assert _taped_positions(out, h, w) == _brute_windows(h, w), (h, w)


# --- criterion 3: worked example -------------------------------------------

def test_criterion_3_worked_example_value():
    """[[1,2],[3,4]] with an identity embedding: the five window means are
    1.5, 3.5, 2, 3, 2.5 (by hand), and their average is 2.5."""
    fm = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    fc_weight = Parameter("fc_weight", np.array([[1.0]]))
    fc_bias = Parameter("fc_bias", np.array([0.0]))
    out = lca_forward(fm, fc_weight, fc_bias)
    assert out.data.shape == (1, 1)
    assert abs(out.item() - 2.5) <= 1e-6


# --- criterion 4: loss identities -------------------------------------------

def test_criterion_4_loss_identities():
    # entropy of the uniform distribution over K classes is ln K
    for k in (2, 3, 5, 10, 64):
        logp = T.log_softmax(Tensor(np.zeros((1, k), dtype=np.float64)))
        assert abs(losses.entropy(logp).item() - math.log(k)) <= 1e-9, k

    # entropy of a one-hot distribution is exactly zero (0 log 0 := 0)
    logp = T.log_softmax(Tensor(np.array([[1000.0, 0.0, 0.0]])))
    assert losses.entropy(logp).item() == 0.0

    # at lambda = 0 the combined loss is the NLL, nothing else
    rng = Rng(3)
    z = Tensor(rng.uniform_array((8, 5), -3.0, 3.0, dtype=np.float64))
    targets = np.array([rng.randint(5) for _ in range(8)])
    nll = losses.nll_loss(T.log_softmax(z), targets).item()
    combined = losses.max_entropy_loss(z, targets, LossConfig(lambda_entropy=0.0)).item()
    assert abs(combined - nll) <= 1e-12

    # the entropy term is stationary at uniform logits
    z = Tensor(np.zeros((4, 7), dtype=np.float64), requires_grad=True)
    backward(losses.entropy(T.log_softmax(z)))
    assert float(np.linalg.norm(z.grad)) < 1e-10


# --- criterion 5: desk-scale training ---------------------------------------

@pytest.fixture(scope="module")
def glyph_corpus(tmp_path_factory):
    """The pinned synthetic corpus: 8 classes, 64 train / 16 test, seed 42."""
    root = tmp_path_factory.mktemp("glyphs")
    assert lcanet_main(["synth", "--out", str(root), "--seed", "42"]) == 0
    return root


def _write_cfg(path, pairs):
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return str(path)


def _training_pairs(corpus, workdir, head, tag):
    return {
        "seed": 42,
        "epochs": 30,
        "batch_size": 32,
        "lr": 0.01,
        "momentum": 0.9,
        "lambda_entropy": 0.1,
        "lr_step_epoch": 0,  # constant learning rate for the pinned recipe
        "head": head,
        "lca.embed_dim": 32,
        "backbone": "tiny_cnn",
        "channels": "16,32",
        "input_size": "16",
        "data.train": corpus / "train",
        "data.test": corpus / "test",
        "ckpt.out": workdir / f"{tag}.lcac",
        "log.csv": workdir / f"{tag}.csv",
    }


def _csv_rows(path):
    lines = path.read_text().splitlines()
    out = []
    for line in lines[1:]:
        cols = line.split(",")
        out.append({"epoch": int(cols[0]), "train_acc": float(cols[4]),
                    "test_acc": float(cols[5])})
    return out


def test_criterion_5_desk_scale_training(glyph_corpus, tmp_path):
    """LCA head reaches 95% train / 85% test within 30 epochs in < 5 min;
    the GAP control runs under identical settings and is reported alongside."""
    lca_cfg = load_config(_write_cfg(
        tmp_path / "lca.cfg", _training_pairs(glyph_corpus, tmp_path, "lca", "lca")))
    t0 = time.perf_counter()
    lca = run_training(lca_cfg)
    lca_wall = time.perf_counter() - t0

    rows = _csv_rows(tmp_path / "lca.csv")
    assert len(rows) == 30
    crossed = [r for r in rows if r["train_acc"] >= 95.0 and r["test_acc"] >= 85.0]
    assert crossed, (
        "no epoch reached 95% train / 85% test; final row: "
        f"train={rows[-1]['train_acc']:.4f} test={rows[-1]['test_acc']:.4f}"
    )
    assert lca_wall < 300.0, f"LCA training took {lca_wall:.0f}s"

    gap_cfg = load_config(_write_cfg(
        tmp_path / "gap.cfg", _training_pairs(glyph_corpus, tmp_path, "gap", "gap")))
    gap = run_training(gap_cfg)

    # control comparison is reported, not gated
    print("\nhead  train_acc%  test_acc%   (30 epochs, identical settings)")
    print(f"lca   {lca.final_train_acc:9.4f}  {lca.final_test_acc:9.4f}")
    print(f"gap   {gap.final_train_acc:9.4f}  {gap.final_test_acc:9.4f}")


# --- criterion 6: determinism and persistence --------------------------------

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    assert lcanet_main([
        "synth", "--out", str(root), "--classes", "3",
        "--per-class", "8", "--test-per-class", "4", "--seed", "7",
    ]) == 0
    return root


def _small_pairs(corpus, workdir, tag, epochs):
    return {
        "seed": 9,
        "epochs": epochs,
        "batch_size": 8,
        "lr": 0.05,
        "momentum": 0.9,
        "lambda_entropy": 0.1,
        "lr_step_epoch": 4,  # exercises the schedule across the resume point
        "lr_step_factor": 0.1,
        "head": "lca",
        "lca.embed_dim": 8,
        "backbone": "tiny_cnn",
        "channels": "4,8",
        "input_size": "16",
        "data.train": corpus / "train",
        "data.test": corpus / "test",
        "ckpt.out": workdir / f"{tag}.lcac",
        "log.csv": workdir / f"{tag}.csv",
    }


def _sans_wall(path):
    """CSV bytes with the wall_seconds column dropped from every row.

    Wall-clock time is measured honestly, so it is the one column two
    otherwise identical runs may not reproduce.
    """
    lines = path.read_text().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_criterion_6_determinism_and_persistence(small_corpus, tmp_path):
    # identical (config, seed) -> identical metrics CSV
    a = run_training(load_config(_write_cfg(
        tmp_path / "a.cfg", _small_pairs(small_corpus, tmp_path, "a", 6))))
    b = run_training(load_config(_write_cfg(
        tmp_path / "b.cfg", _small_pairs(small_corpus, tmp_path, "b", 6))))
    assert _sans_wall(tmp_path / "a.csv") == _sans_wall(tmp_path / "b.csv")
    assert a.final_train_loss == b.final_train_loss

    # stop after 3 epochs, resume to 6: bit-exact final loss, identical
    # checkpoint bytes and identical metrics rows
    run_training(load_config(_write_cfg(
        tmp_path / "c3.cfg", _small_pairs(small_corpus, tmp_path, "c", 3))))
    shutil.copy(tmp_path / "c.csv", tmp_path / "r.csv")
    resumed = run_training(
        load_config(_write_cfg(
            tmp_path / "r.cfg", _small_pairs(small_corpus, tmp_path, "r", 6))),
        resume=str(tmp_path / "c.lcac"),
    )
    assert resumed.final_train_loss == a.final_train_loss
    assert (tmp_path / "r.lcac").read_bytes() == (tmp_path / "a.lcac").read_bytes()
    assert _sans_wall(tmp_path / "r.csv") == _sans_wall(tmp_path / "a.csv")

    # checkpoint round-trip is byte-identical
    loaded = load_checkpoint(str(tmp_path / "a.lcac"))
    save_checkpoint(
        loaded.model, str(tmp_path / "rt.lcac"),
        velocities=loaded.velocities, epoch=loaded.epoch,
        rng_state=loaded.rng_state,
    )
    assert (tmp_path / "rt.lcac").read_bytes() == (tmp_path / "a.lcac").read_bytes()


# --- criterion 7: invariance properties --------------------------------------

def test_criterion_7_invariance_properties():
    rng = Rng(11)
    fm = rng.uniform_array((2, 3, 5, 4), -1.0, 1.0, dtype=np.float64)
    w = rng.uniform_array((4, 3), -1.0, 1.0, dtype=np.float64)
    params = (
        Parameter("fc_weight", w),
        Parameter("fc_bias", np.zeros(4, dtype=np.float64)),
    )
    out = lca_forward(Tensor(fm), *params).data

    # aggregation is permutation-invariant: shuffling the concept vectors
    # leaves the head output unchanged
    def reference(concepts):
        return np.maximum(concepts @ w.T, 0.0).mean(axis=1)

    concepts = concept_vectors(fm)
    perm = np.array(rng.permutation(concepts.shape[1]))
    assert np.abs(reference(concepts) - reference(concepts[:, perm])).max() <= 1e-12
    assert np.abs(out - reference(concepts)).max() <= 1e-12

    # positive homogeneity with zero bias: f(c*x) = c*f(x) for c > 0
    for c in (0.5, 2.0, 7.25):
        scaled = lca_forward(Tensor(c * fm), *params).data
        assert np.abs(scaled - c * out).max() <= 1e-10, c

    # 1x1 stride-1 average pooling is the identity, bit for bit
    x = Tensor(rng.uniform_array((2, 3, 6, 5), -1.0, 1.0))
    y = T.avgpool2d(x, 1, 1, stride=1)
    assert y.data.tobytes() == x.data.tobytes()

    # one epoch of batches covers exactly the dataset's label multiset
    ds, _ = synth_glyphs(3, 5, 1, seed=2)
    seen = Counter()
    for b in batches(ds, 4, rng=Rng(5)):
        seen.update(b.labels.tolist())
    assert seen == Counter(ds.labels.tolist())
