"""Model assembly, forward composition, and checkpoint persistence."""

import dataclasses
import errno
import os
import re

import numpy as np
import pytest

import lcanet.tensor as T
from lcanet import (
    Architecture,
    CheckpointError,
    ConfigError,
    Rng,
    build_model,
    concept_count,
    load_checkpoint,
    max_entropy_loss,
    save_checkpoint,
)
from lcanet.cli import main
from lcanet.config import parse_config
from lcanet.optim import SGD
from lcanet.tensor import ShapeError, Tensor
from lcanet.data import load_image_dir
from lcanet.train import evaluate, run_training


def tiny_arch(embed_dim=None, num_classes=8, h=16, w=16, channels=(16, 32)):
    return Architecture("tiny_cnn", channels, (h, w), embed_dim, num_classes)


def ext_arch(c=1, h=2, w=2, embed_dim=None, num_classes=2):
    return Architecture("external_features", (c,), (h, w), embed_dim, num_classes)


RNG_STATE = Rng(0).state_bytes()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_feature_shape_tiny_cnn():
    assert tiny_arch().feature_shape() == (32, 4, 4)


def test_lca_head_concept_count_on_default_geometry():
    c, h, w = tiny_arch(32).feature_shape()
    assert concept_count(h, w) == 84  # (10*10) - 16


def test_gap_classifier_input_is_channel_count():
    m = build_model(tiny_arch(), rng=Rng(0))
    assert m.param("cls_weight").shape == (8, 32)


def test_lca_classifier_input_is_embed_dim():
    m = build_model(tiny_arch(12), rng=Rng(0))
    assert m.param("cls_weight").shape == (8, 12)


@pytest.mark.parametrize("arch,head", [
    (tiny_arch(32), "lca"),
    (tiny_arch(), "gap"),
    (ext_arch(512, 7, 7, embed_dim=512, num_classes=8), "lca"),
])
def test_init_takes_one_stream_draw_per_weight(arch, head):
    """Each weight array is keyed by one u64, whatever its size; biases draw nothing."""
    a, b = Rng(7), Rng(7)
    m = build_model(arch, rng=a)
    assert m.arch.head == head
    weights = [p for p in m.parameters() if not p.name.endswith("_bias")]
    assert len(weights) < len(m.parameters())
    for _ in weights:
        b.next_u64()
    assert a.state_bytes() == b.state_bytes()


def test_parameter_names_are_stable():
    m = build_model(tiny_arch(32), rng=Rng(0))
    assert [p.name for p in m.parameters()] == [
        "conv1_weight", "conv1_bias", "conv2_weight", "conv2_bias",
        "fc_weight", "fc_bias", "cls_weight", "cls_bias",
    ]


def test_same_seed_same_initial_logits():
    x = Tensor(Rng(5).uniform_array((2, 3, 16, 16), 0, 1, dtype=np.float32))
    a = build_model(tiny_arch(16, 4), rng=Rng(7))
    b = build_model(tiny_arch(16, 4), rng=Rng(7))
    np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)


def test_a_sample_forward_does_not_depend_on_its_batch(tmp_path):
    """The metrics CSV scores the test split at the training batch size and
    ``lcanet eval`` at 256. On a trained glyph model, evaluation gives the
    same per-class counts at every batch size, and a sample's feature map
    and head output have the same bits alone as inside a batch of 32 (its
    logits need not: the classifier is one product over the batch)."""
    assert main(["synth", "--out", str(tmp_path), "--classes", "4",
                 "--per-class", "70", "--test-per-class", "2"]) == 0
    cfg = parse_config(
        "seed = 5\nepochs = 2\nbatch_size = 32\n"
        f"data.train = {tmp_path / 'train'}\ndata.test = {tmp_path / 'test'}\n"
        f"ckpt.out = {tmp_path / 'm.lcac'}\nlog.csv = {tmp_path / 'm.csv'}\n"
    )
    run_training(cfg)
    model = load_checkpoint(cfg.ckpt_out).model
    ds = load_image_dir(tmp_path / "train", model.arch.input_size)
    assert len(ds) == 280

    counts = {bs: evaluate(model, ds, batch_size=bs).per_class for bs in (1, 7, 32, 256)}
    assert sum(correct for _, correct, _ in counts[256]) > 70  # trained past chance
    assert counts[1] == counts[7] == counts[32] == counts[256]

    with T.no_grad():
        fm = model.feature_map(Tensor(ds.inputs[:32]))
        head = model.head_output(fm).data
        for i in (0, 13, 31):
            fm_alone = model.feature_map(Tensor(ds.inputs[i : i + 1]))
            assert fm_alone.data.tobytes() == fm.data[i : i + 1].tobytes(), i
            head_alone = model.head_output(fm_alone).data
            assert head_alone.tobytes() == head[i : i + 1].tobytes(), i


@pytest.mark.parametrize("h,w,channels", [
    (16, 16, (16, 32)),
    (10, 10, (6, 12)),
    (12, 20, (5, 7)),
    (8, 28, (3, 9)),
])
def test_feature_map_bits_do_not_depend_on_the_batch_at_any_shape(h, w, channels):
    """Each sample's conv forward is its own matrix product, so a sample's
    feature map has the same bits in batches of every size and at every
    place, also at input sizes and channel counts off the default."""
    model = build_model(tiny_arch(8, 4, h, w, channels), rng=Rng(2))
    x = Rng(3).uniform_array((37, 3, h, w), 0, 1, dtype=np.float32)
    with T.no_grad():
        full = model.feature_map(Tensor(x)).data
        for lo, hi in ((0, 1), (5, 12), (3, 35), (36, 37)):
            part = model.feature_map(Tensor(x[lo:hi])).data
            assert part.tobytes() == full[lo:hi].tobytes(), (lo, hi)


class TestBuildValidation:
    """Each architecture rule refuses when the value is made."""

    def test_num_classes_lower_bound(self):
        with pytest.raises(ConfigError, match="num_classes must be >= 2"):
            tiny_arch(num_classes=1)

    def test_input_too_small_for_backbone(self):
        with pytest.raises(ConfigError, match="tiny_cnn needs input >= 4x4, got 3x3"):
            tiny_arch(h=3, w=3)

    def test_lca_needs_spatial_extent(self):
        with pytest.raises(ConfigError, match="lca head: no pooling kernel"):
            ext_arch(4, 1, 1, embed_dim=4)

    def test_backbone_kind_checked(self):
        with pytest.raises(ConfigError):
            Architecture("resnext", (8,), (16, 16), None, 2)

    def test_tiny_cnn_channel_arity(self):
        with pytest.raises(ConfigError):
            tiny_arch(channels=(16,))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_external_features_reproduces_head_worked_example():
    """Hand map [[1,2],[3,4]] through identity FC gives 2.5 pre-classifier."""
    m = build_model(ext_arch(embed_dim=1), rng=Rng(0))
    m.param("fc_weight").data[...] = 1.0
    fm = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    head = m.head_output(m.feature_map(fm))
    np.testing.assert_allclose(head.data, [[2.5]], atol=1e-6)


def test_zero_classifier_gives_uniform_predictions():
    m = build_model(tiny_arch(num_classes=5), rng=Rng(0))
    for p in m.parameters():
        p.data[...] = 0.0
    x = Tensor(Rng(1).uniform_array((3, 3, 16, 16), 0, 1, dtype=np.float32))
    logits = m.forward(x)
    np.testing.assert_array_equal(logits.data, np.zeros((3, 5)))
    # uniform softmax -> NLL is ln K
    loss = max_entropy_loss(logits, np.zeros(3, dtype=np.int64), 0.0)
    assert abs(loss.item() - np.log(5)) < 1e-6


def test_identical_images_identical_logit_rows():
    m = build_model(tiny_arch(16, 4), rng=Rng(3))
    one = Rng(4).uniform_array((1, 3, 16, 16), 0, 1, dtype=np.float32)
    batch = Tensor(np.repeat(one, 5, axis=0))
    logits = m.forward(batch).data
    for row in logits[1:]:
        np.testing.assert_array_equal(row, logits[0])


def test_forward_rejects_wrong_image_shape():
    m = build_model(tiny_arch(num_classes=4), rng=Rng(0))
    with pytest.raises(ShapeError):
        m.forward(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))


def test_external_mode_rejects_wrong_channels():
    m = build_model(ext_arch(c=4, h=3, w=3, num_classes=4), rng=Rng(0))
    with pytest.raises(ShapeError):
        m.forward(Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c,h,w", [(32, 4, 4), (512, 7, 7), (64, 14, 14), (3, 5, 9), (2, 1, 3)])
def test_gap_head_bytes_match_full_map_avgpool(c, h, w, dtype):
    """The GAP head's output and feature-map gradient equal avgpool2d over the
    whole map, bit for bit."""
    m = build_model(ext_arch(c, h, w), rng=Rng(0), dtype=dtype)
    rng = Rng(c * h * w)
    x = rng.uniform_array((3, c, h, w), -1, 1, dtype=dtype)
    probe = Tensor(rng.uniform_array((3, c), -1, 1, dtype=dtype))
    fm, ref_fm = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    out = m.head_output(fm)
    # avgpool2d takes a [C, H, W, B] map.
    pooled = T.avgpool2d(T.transpose(ref_fm, (1, 2, 3, 0)), h, w, 1)
    ref = T.reshape(T.transpose(pooled, (3, 0, 1, 2)), (3, c))
    T.backward(T.tensor_sum(T.mul(out, probe)))
    T.backward(T.tensor_sum(T.mul(ref, probe)))
    assert out.data.tobytes() == ref.data.tobytes()
    assert fm.grad.tobytes() == ref_fm.grad.tobytes()


def test_gap_head_output_length_is_spatial_free():
    for h, w in [(8, 8), (16, 16), (16, 24)]:
        m = build_model(tiny_arch(num_classes=4, h=h, w=w), rng=Rng(0))
        x = Tensor(np.zeros((2, 3, h, w), dtype=np.float32))
        fm = m.feature_map(x)
        assert m.head_output(fm).shape == (2, 32)


def _relu_first_forward(m, x):
    """Model.forward as it was written before the pool moved ahead of the
    relu, on the [C, H, W, B] maps the spatial ops take."""
    y = T.transpose(x, (1, 2, 3, 0))
    y = T.conv2d(y, m.param("conv1_weight"), m.param("conv1_bias"), 1, 1)
    y = T.maxpool2d(T.relu(y), 2, 2)
    y = T.conv2d(y, m.param("conv2_weight"), m.param("conv2_bias"), 1, 1)
    fm = T.transpose(T.maxpool2d(T.relu(y), 2, 2), (3, 0, 1, 2))
    logits = T.matmul(m.head_output(fm), T.transpose(m.param("cls_weight")))
    return T.add(logits, m.param("cls_bias"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hw, lca", [((16, 16), True), ((10, 10), True), ((7, 5), False)])
def test_pool_then_relu_model_bytes_equal_relu_then_pool(hw, lca, dtype):
    """A tiny_cnn model's logits and every parameter gradient are the bytes
    the relu-then-pool backbone gave, with dead channels and signed biases."""
    models = []
    for _ in range(2):
        m = build_model(tiny_arch(5 if lca else None, 3, *hw, channels=(4, 6)),
                        rng=Rng(11), dtype=dtype)
        for p in m.parameters():
            if p.name.endswith("_bias"):
                p.data[...] = Rng(12).uniform_array(p.shape, -0.5, 0.5, dtype=dtype)
        m.param("conv1_bias").data[0] = -100.0  # a channel whose every window is dead
        models.append(m)
    x = Tensor(Rng(13).uniform_array((4, 3, *hw), 0, 1, dtype=dtype))
    targets = np.array([0, 1, 2, 1])
    out = models[0].forward(x)
    ref = _relu_first_forward(models[1], x)
    T.backward(max_entropy_loss(out, targets, 0.1))
    T.backward(max_entropy_loss(ref, targets, 0.1))
    assert out.data.tobytes() == ref.data.tobytes()
    for p, q in zip(models[0].parameters(), models[1].parameters()):
        assert p.grad.dtype == dtype
        assert p.grad.tobytes() == q.grad.tobytes(), p.name


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def small_model(rng_seed=0):
    return build_model(tiny_arch(5, 3, 8, 8, (4, 6)), rng=Rng(rng_seed))


def test_checkpoint_roundtrip_restores_everything(tmp_path):
    m = small_model()
    vel = {p.name: Rng(1).uniform_array(p.shape, -1, 1, dtype=np.float32)
           for p in m.parameters()}
    path = tmp_path / "model.lcac"
    save_checkpoint(m, path, velocities=vel, epoch=17, rng_state=RNG_STATE)

    loaded = load_checkpoint(path)
    assert loaded.epoch == 17
    assert loaded.rng_state == RNG_STATE
    for p in m.parameters():
        np.testing.assert_array_equal(loaded.model.param(p.name).data, p.data)
        np.testing.assert_array_equal(loaded.velocities[p.name], vel[p.name])
    assert loaded.model.arch == m.arch


ROUNDTRIP_ARCHS = [tiny_arch(h=8, w=8, channels=(4, 6)), ext_arch(3, 2, 5)]


@pytest.mark.parametrize("embed_dim", [5, None], ids=["lca", "gap"])
def test_checkpoint_roundtrip_restores_head(tmp_path, embed_dim):
    """Every backbone loads back with the head and architecture it was saved
    with."""
    for arch in ROUNDTRIP_ARCHS:
        m = build_model(dataclasses.replace(arch, embed_dim=embed_dim, num_classes=3),
                        rng=Rng(0))
        path = tmp_path / "m.lcac"
        save_checkpoint(m, path, velocities={}, epoch=0, rng_state=RNG_STATE)
        loaded = load_checkpoint(path).model
        assert loaded.arch == m.arch
        assert loaded.arch.head == ("gap" if embed_dim is None else "lca")


def test_save_load_save_is_byte_identical(tmp_path):
    """Every backbone and head re-saves to the same bytes."""
    for arch in ROUNDTRIP_ARCHS:
        for embed_dim in (5, None):
            m = build_model(dataclasses.replace(arch, embed_dim=embed_dim, num_classes=3),
                            rng=Rng(0))
            vel = {p.name: np.zeros(p.shape, dtype=np.float32) for p in m.parameters()}
            a, b = tmp_path / "a.lcac", tmp_path / "b.lcac"
            save_checkpoint(m, a, velocities=vel, epoch=2, rng_state=RNG_STATE)
            loaded = load_checkpoint(a)
            save_checkpoint(loaded.model, b, velocities=loaded.velocities,
                            epoch=loaded.epoch, rng_state=loaded.rng_state)
            assert a.read_bytes() == b.read_bytes()


def test_checkpoint_loads_into_architecture_order(tmp_path):
    """A file that lists its parameters in another order loads them in
    Architecture.param_shapes order, with the file's bytes, and re-saves
    canonically."""
    m = small_model()
    vel = {p.name: Rng(2).uniform_array(p.shape, -1, 1, dtype=np.float32)
           for p in m.parameters()}
    canonical, shuffled, resaved = (tmp_path / f"{n}.lcac" for n in ("a", "b", "c"))
    save_checkpoint(m, canonical, velocities=vel, epoch=4, rng_state=RNG_STATE)
    order = list(m.arch.param_shapes())
    m._params = {name: m.param(name) for name in reversed(order)}
    save_checkpoint(m, shuffled, velocities=vel, epoch=4, rng_state=RNG_STATE)
    assert shuffled.read_bytes() != canonical.read_bytes()

    loaded = load_checkpoint(shuffled)
    assert [p.name for p in loaded.model.parameters()] == order
    for p in loaded.model.parameters():
        assert p.data.tobytes() == m.param(p.name).data.tobytes()
    save_checkpoint(loaded.model, resaved, velocities=loaded.velocities, epoch=loaded.epoch,
                    rng_state=loaded.rng_state)
    assert resaved.read_bytes() == canonical.read_bytes()


def test_logits_identical_after_roundtrip(tmp_path):
    m = small_model()
    path = tmp_path / "m.lcac"
    save_checkpoint(m, path, velocities={}, epoch=0, rng_state=RNG_STATE)
    x = Tensor(Rng(9).uniform_array((2, 3, 8, 8), 0, 1, dtype=np.float32))
    np.testing.assert_array_equal(
        load_checkpoint(path).model.forward(x).data, m.forward(x).data
    )


def test_velocity_subset_is_legal(tmp_path):
    """A frozen backbone keeps velocities only for the head parameters."""
    m = small_model()
    vel = {"fc_weight": np.zeros((5, 6), dtype=np.float32)}
    path = tmp_path / "m.lcac"
    save_checkpoint(m, path, velocities=vel, epoch=1, rng_state=RNG_STATE)
    assert set(load_checkpoint(path).velocities) == {"fc_weight"}


def test_save_failing_before_the_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    """An ``fsync`` that finds the disk full raises, and removes ``c.lcac.tmp``."""

    def full_disk(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(small_model(), tmp_path / "c.lcac", velocities={}, epoch=0,
                        rng_state=RNG_STATE)
    assert os.listdir(tmp_path) == []


def test_velocity_for_unknown_param_rejected(tmp_path):
    m = small_model()
    with pytest.raises(CheckpointError):
        save_checkpoint(m, tmp_path / "m.lcac",
                        velocities={"bogus": np.zeros(1, dtype=np.float32)},
                        epoch=0, rng_state=RNG_STATE)


class TestCorruptFiles:
    @pytest.fixture()
    def blob(self, tmp_path):
        path = tmp_path / "m.lcac"
        save_checkpoint(small_model(), path, velocities={}, epoch=3,
                        rng_state=RNG_STATE)
        return path, path.read_bytes()

    def test_truncated_by_one_byte(self, blob):
        path, raw = blob
        path.write_bytes(raw[:-1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_heavily_truncated(self, blob):
        path, raw = blob
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, blob):
        path, raw = blob
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_version(self, blob):
        path, raw = blob
        path.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "version" in str(exc.value)

    def test_trailing_garbage(self, blob):
        path, raw = blob
        path.write_bytes(raw + b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_param_name_not_utf8(self, blob):
        path, raw = blob
        # the first name starts after magic, version, param count, name length
        path.write_bytes(raw[:14] + b"\xff" + raw[15:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rank_above_numpy_limit(self, blob):
        path, raw = blob
        # the first entry's rank byte follows its name and dtype tag
        name_len = int.from_bytes(raw[12:14], "little")
        at = 14 + name_len + 1
        path.write_bytes(raw[:at] + bytes([65]) + bytes(4 * 65) + raw[at + 1:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_dims_whose_product_overflows_int64(self, blob):
        """Four dims of 2**16 hold 2**64 elements, which wraps to 0 in int64."""
        path, raw = blob
        name_len = int.from_bytes(raw[12:14], "little")
        at = 14 + name_len + 1
        rank = raw[at]
        dims = (1 << 16).to_bytes(4, "little") * 4
        path.write_bytes(raw[:at] + bytes([4]) + dims + raw[at + 1 + 4 * rank:])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_param_renamed(self, blob):
        path, raw = blob
        path.write_bytes(raw.replace(b"cls_bias", b"cls_bixs"))
        with pytest.raises(CheckpointError, match="not in the architecture"):
            load_checkpoint(path)

    def test_unknown_dtype_tag(self, blob):
        path, raw = blob
        at = 14 + int.from_bytes(raw[12:14], "little")  # the first entry's dtype tag
        path.write_bytes(raw[:at] + bytes([2]) + raw[at + 1:])
        with pytest.raises(CheckpointError, match="unknown dtype tag 2"):
            load_checkpoint(path)

    @staticmethod
    def named(path, match):
        """A ``match`` pattern that also requires the refusal to start with the path."""
        return f"^{re.escape(str(path))}: {match}"

    @staticmethod
    def cls_bias_entry(raw, at):
        """(start, end) of the cls_bias table entry whose name starts at ``at``:
        u16 name length, the 8-byte name, dtype tag, rank 1, one u32 dim, and
        three f32 values."""
        assert raw[at - 2 : at + 14] == b"\x08\x00cls_bias\x01\x01\x03\x00\x00\x00"
        return at - 2, at + 26

    def test_param_missing(self, blob):
        """save refuses a model without cls_bias, so the file is made by
        cutting that entry, the parameter table's last, out of a valid one."""
        path, raw = blob
        start, end = self.cls_bias_entry(raw, raw.index(b"cls_bias"))
        assert raw[8:12] == (8).to_bytes(4, "little")
        path.write_bytes(raw[:8] + (7).to_bytes(4, "little") + raw[12:start] + raw[end:])
        with pytest.raises(CheckpointError, match=self.named(path, "params .* != expected")):
            load_checkpoint(path)

    @staticmethod
    def with_cls_bias_velocity(tmp_path):
        """A small checkpoint whose velocity table holds cls_bias alone, at 0.5."""
        path = tmp_path / "m.lcac"
        save_checkpoint(small_model(), path, velocities={"cls_bias": np.full(3, 0.5, np.float32)},
                        epoch=3, rng_state=RNG_STATE)
        raw = path.read_bytes()
        return path, raw, raw.rindex(b"cls_bias")  # the velocity table follows the parameters

    def test_velocity_name_patched_to_an_unknown_param(self, tmp_path):
        path, raw, at = self.with_cls_bias_velocity(tmp_path)
        path.write_bytes(raw[:at] + b"cls_bixs" + raw[at + 8:])
        with pytest.raises(CheckpointError,
                           match=self.named(path, "velocity cls_bixs is not in the architecture")):
            load_checkpoint(path)

    def test_velocity_of_the_wrong_shape(self, tmp_path):
        """save refuses a wrong-shape velocity, so the file is made by patching
        the stored dim 3 -> 4 and adding a fourth value."""
        path, raw, at = self.with_cls_bias_velocity(tmp_path)
        _, end = self.cls_bias_entry(raw, at)
        path.write_bytes(raw[:at + 10] + (4).to_bytes(4, "little") + raw[at + 14 : end]
                         + bytes(4) + raw[end:])
        with pytest.raises(CheckpointError, match=self.named(
                path, re.escape("velocity cls_bias: stored shape (4,) != expected (3,)"))):
            load_checkpoint(path)

    def test_velocity_stored_twice(self, tmp_path):
        """A second cls_bias velocity (zeros, after the 0.5 one) is refused,
        not read as the one that wins."""
        path, raw, at = self.with_cls_bias_velocity(tmp_path)
        start, end = self.cls_bias_entry(raw, at)
        assert raw[start - 4 : start] == (1).to_bytes(4, "little")  # the velocity count
        zeros = raw[start : at + 14] + bytes(12)
        path.write_bytes(raw[:start - 4] + (2).to_bytes(4, "little") + raw[start:end] + zeros
                         + raw[end:])
        with pytest.raises(CheckpointError,
                           match=self.named(path, "velocity cls_bias is stored twice")):
            load_checkpoint(path)

    def test_param_stored_twice(self, blob):
        path, raw = blob
        start, end = self.cls_bias_entry(raw, raw.index(b"cls_bias"))
        path.write_bytes(raw[:8] + (9).to_bytes(4, "little") + raw[12:end] + raw[start:])
        with pytest.raises(CheckpointError,
                           match=self.named(path, "param cls_bias is stored twice")):
            load_checkpoint(path)

    @staticmethod
    def patched(tmp_path, embed_dim, offset, value: bytes):
        """A small tiny_cnn checkpoint whose architecture block has ``value``
        written ``offset`` bytes in. The block opens with four bytes
        (backbone tag, head tag, kernel-set byte, pad); after them come
        input size (offset 4), channel count and two channels (12, 16, 20),
        embed_dim (24) and classes (28). An empty velocity table (4), the
        epoch (8) and the rng state (32) follow it."""
        path = tmp_path / "m.lcac"
        m = build_model(tiny_arch(embed_dim, 3, 8, 8, (4, 6)), rng=Rng(0))
        save_checkpoint(m, path, velocities={}, epoch=3, rng_state=RNG_STATE)
        raw = path.read_bytes()
        at = len(raw) - (4 + 8 + 12 + 8 + 4 + 8 + 32) + offset
        assert raw[at : at + len(value)] != value
        path.write_bytes(raw[:at] + value + raw[at + len(value):])
        return path

    @pytest.mark.parametrize("embed_dim,offset,value,match", [
        (5, 0, 2, "tags"),
        (5, 1, 2, "tags"),
        (5, 2, 0, "kernel-set byte 0 on a lca head, expected 1"),
        (5, 2, 7, "kernel-set byte 7 on a lca head, expected 1"),
        (None, 2, 1, "kernel-set byte 1 on a gap head, expected 0"),
        (None, 2, 7, "kernel-set byte 7 on a gap head, expected 0"),
        (5, 3, 1, "pad byte 1, expected 0"),
        (None, 3, 7, "pad byte 7, expected 0"),
        (None, 24, 7, "embed_dim field 7 on a gap head, expected 0"),
    ], ids=["backbone_tag", "head_tag", "lca_kernel_set_0", "lca_kernel_set_7",
            "gap_kernel_set_1", "gap_kernel_set_7", "lca_pad", "gap_pad", "gap_embed_dim"])
    def test_unknown_architecture_tag(self, tmp_path, embed_dim, offset, value, match):
        """Each of the architecture's four leading bytes has one valid value
        per head, and a GAP head's embed_dim field one; any other is refused,
        naming the file, so no file loads that would re-save to other
        bytes."""
        path = self.patched(tmp_path, embed_dim, offset, bytes([value]))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*{match}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset", [24, 16], ids=["embed_dim_zero", "channel_zero"])
    def test_invalid_architecture(self, tmp_path, offset):
        """Architecture fields that ``Architecture`` rejects (embed_dim 0, a
        zero channel count) are a corrupt checkpoint, not a bad config."""
        path = self.patched(tmp_path, 5, offset, (0).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="invalid architecture"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset", [24, 28, 20],
                             ids=["embed_dim", "num_classes", "last_channel"])
    def test_huge_architecture_field_allocates_nothing(self, tmp_path, offset):
        """A size field patched far beyond the tensors the file holds is a
        corrupt checkpoint, caught before the model is built from it (at
        2**31-1 that build would ask for tens of GiB)."""
        path = self.patched(tmp_path, 5, offset, (2**31 - 1).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="stored shape"):
            load_checkpoint(path)


@pytest.mark.parametrize("drop,velocities,match", [
    (None, {"fc_weight": np.zeros(7, np.float32)},
     r"velocity fc_weight: stored shape \(7,\) != expected \(5, 6\)"),
    ("cls_bias", {}, "params .* != expected"),
], ids=["velocity_of_the_wrong_shape", "param_missing"])
def test_save_refuses_what_load_would_refuse(tmp_path, drop, velocities, match):
    """save checks the tables by load's rule before it builds a byte, so it
    leaves neither the file nor its temp file."""
    m = small_model()
    m._params.pop(drop, None)
    path = tmp_path / "m.lcac"
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: {match}"):
        save_checkpoint(m, path, velocities=velocities, epoch=0, rng_state=RNG_STATE)
    assert list(tmp_path.iterdir()) == []


def test_bad_rng_state_length_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(small_model(), tmp_path / "m.lcac", velocities={},
                        epoch=0, rng_state=b"\x00" * 31)


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "m.lcac"
    save_checkpoint(small_model(), path, velocities={}, epoch=0,
                    rng_state=RNG_STATE)
    assert [p.name for p in tmp_path.iterdir()] == ["m.lcac"]


# ---------------------------------------------------------------------------
# training-continuation equivalence (in-memory, fixed batch)
# ---------------------------------------------------------------------------


def _loss_on(m, x, labels):
    return max_entropy_loss(m.forward(x), labels, 0.1)


def test_save_load_midway_reproduces_straight_run_bit_exactly(tmp_path):
    """5 optimizer steps straight vs 3 + checkpoint + 2 on one fixed batch."""
    x = Tensor(Rng(20).uniform_array((4, 3, 8, 8), 0, 1, dtype=np.float32))
    labels = np.array([0, 1, 2, 0], dtype=np.int64)

    def fresh():
        m = small_model(rng_seed=42)
        return m, SGD(m.parameters(), lr=0.05, momentum=0.9)

    def step(m, opt):
        loss = _loss_on(m, x, labels)
        T.backward(loss)
        opt.step()
        return loss.item()

    straight_m, straight_opt = fresh()
    for _ in range(5):
        straight_loss = step(straight_m, straight_opt)

    m, opt = fresh()
    for _ in range(3):
        step(m, opt)
    path = tmp_path / "mid.lcac"
    save_checkpoint(m, path, velocities=opt.velocity, epoch=3,
                    rng_state=RNG_STATE)

    loaded = load_checkpoint(path)
    m2 = loaded.model
    opt2 = SGD(m2.parameters(), lr=0.05, momentum=0.9)
    opt2.velocity.update(loaded.velocities)
    for _ in range(2):
        resumed_loss = step(m2, opt2)

    assert np.float32(straight_loss) == np.float32(resumed_loss)
    for p in straight_m.parameters():
        np.testing.assert_array_equal(p.data, m2.param(p.name).data)
