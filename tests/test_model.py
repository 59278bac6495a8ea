"""Model assembly, forward composition, and checkpoint persistence."""

from types import SimpleNamespace

import numpy as np
import pytest

import lcanet.tensor as T
from lcanet import (
    BackboneConfig,
    CheckpointError,
    ConfigError,
    LcaConfig,
    LossConfig,
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
from lcanet.train import build_from_config, run_training


def tiny_backbone(h=16, w=16, channels=(16, 32)):
    return BackboneConfig("tiny_cnn", channels, (h, w))


def ext_backbone(c=1, h=2, w=2):
    return BackboneConfig("external_features", (c,), (h, w))


RNG_STATE = Rng(0).state_bytes()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_feature_shape_tiny_cnn():
    m = build_model(tiny_backbone(), None, 8, rng=Rng(0))
    assert m.backbone.feature_shape() == (32, 4, 4)


def test_lca_head_concept_count_on_default_geometry():
    m = build_model(tiny_backbone(), LcaConfig(32), 8, rng=Rng(0))
    c, h, w = m.backbone.feature_shape()
    assert concept_count(h, w, m.lca_cfg.include_one_by_k) == 84  # (10*10) - 16


def test_gap_classifier_input_is_channel_count():
    m = build_model(tiny_backbone(), None, 8, rng=Rng(0))
    assert m.param("cls_weight").shape == (8, 32)


def test_lca_classifier_input_is_embed_dim():
    m = build_model(tiny_backbone(), LcaConfig(12), 8, rng=Rng(0))
    assert m.param("cls_weight").shape == (8, 12)


@pytest.mark.parametrize("backbone,head,lca_cfg", [
    (tiny_backbone(), "lca", LcaConfig(32)),
    (tiny_backbone(), "gap", None),
    (ext_backbone(512, 7, 7), "lca", LcaConfig(512)),
])
def test_init_takes_one_stream_draw_per_weight(backbone, head, lca_cfg):
    """Each weight array is keyed by one u64, whatever its size; biases draw nothing."""
    a, b = Rng(7), Rng(7)
    m = build_model(backbone, lca_cfg, 8, rng=a)
    assert m.head == head
    weights = [p for p in m.parameters() if not p.name.endswith("_bias")]
    assert len(weights) < len(m.parameters())
    for _ in weights:
        b.next_u64()
    assert a.state == b.state


def test_parameter_names_are_stable():
    m = build_model(tiny_backbone(), LcaConfig(32), 8, rng=Rng(0))
    assert [p.name for p in m.parameters()] == [
        "conv1_weight", "conv1_bias", "conv2_weight", "conv2_bias",
        "fc_weight", "fc_bias", "cls_weight", "cls_bias",
    ]


def test_same_seed_same_initial_logits():
    x = Tensor(Rng(5).uniform_array((2, 3, 16, 16), 0, 1, dtype=np.float32))
    a = build_model(tiny_backbone(), LcaConfig(16), 4, rng=Rng(7))
    b = build_model(tiny_backbone(), LcaConfig(16), 4, rng=Rng(7))
    np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)


def test_freeze_backbone_excludes_conv_params(tmp_path):
    """One frozen epoch leaves the conv tensors at their init bytes and keeps
    momentum for the head and classifier only."""
    assert main(["synth", "--out", str(tmp_path), "--classes", "2",
                 "--per-class", "4", "--test-per-class", "2"]) == 0
    cfg = parse_config(
        "seed = 3\nepochs = 1\nbatch_size = 4\nchannels = 4,8\nlca.embed_dim = 6\n"
        f"train.freeze_backbone = true\ndata.train = {tmp_path / 'train'}\n"
        f"data.test = {tmp_path / 'test'}\nckpt.out = {tmp_path / 'm.lcac'}\n"
        f"log.csv = {tmp_path / 'm.csv'}\n"
    )
    run_training(cfg)
    init = build_from_config(cfg, 2, rng=Rng(cfg.seed).spawn())  # the init stream
    loaded = load_checkpoint(cfg.ckpt_out)
    for p in loaded.model.parameters():
        same = p.data.tobytes() == init.param(p.name).data.tobytes()
        assert same == p.name.startswith("conv"), p.name
    assert sorted(loaded.velocities) == ["cls_bias", "cls_weight", "fc_bias", "fc_weight"]


class TestBuildValidation:
    def test_num_classes_lower_bound(self):
        with pytest.raises(ConfigError):
            build_model(tiny_backbone(), None, 1, rng=Rng(0))

    def test_input_too_small_for_backbone(self):
        with pytest.raises(ConfigError):
            build_model(tiny_backbone(3, 3), None, 4, rng=Rng(0))

    def test_lca_needs_spatial_extent(self):
        with pytest.raises(ConfigError):
            build_model(ext_backbone(4, 1, 1), LcaConfig(4), 4, rng=Rng(0))

    def test_backbone_kind_checked(self):
        with pytest.raises(ConfigError):
            BackboneConfig("resnext", (8,), (16, 16))

    def test_tiny_cnn_channel_arity(self):
        with pytest.raises(ConfigError):
            BackboneConfig("tiny_cnn", (16,), (16, 16))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_external_features_reproduces_head_worked_example():
    """Hand map [[1,2],[3,4]] through identity FC gives 2.5 pre-classifier."""
    m = build_model(ext_backbone(), LcaConfig(1), 2, rng=None)
    m.param("fc_weight").data[...] = 1.0
    fm = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    head = m.head_output(m.feature_map(fm))
    np.testing.assert_allclose(head.data, [[2.5]], atol=1e-6)


def test_zero_classifier_gives_uniform_predictions():
    m = build_model(tiny_backbone(), None, 5, rng=None)
    x = Tensor(Rng(1).uniform_array((3, 3, 16, 16), 0, 1, dtype=np.float32))
    logits = m.forward(x)
    np.testing.assert_array_equal(logits.data, np.zeros((3, 5)))
    # uniform softmax -> NLL is ln K
    loss = max_entropy_loss(logits, np.zeros(3, dtype=np.int64), LossConfig(0.0))
    assert abs(loss.item() - np.log(5)) < 1e-6


def test_identical_images_identical_logit_rows():
    m = build_model(tiny_backbone(), LcaConfig(16), 4, rng=Rng(3))
    one = Rng(4).uniform_array((1, 3, 16, 16), 0, 1, dtype=np.float32)
    batch = Tensor(np.repeat(one, 5, axis=0))
    logits = m.forward(batch).data
    for row in logits[1:]:
        np.testing.assert_array_equal(row, logits[0])


def test_forward_rejects_wrong_image_shape():
    m = build_model(tiny_backbone(), None, 4, rng=Rng(0))
    with pytest.raises(ShapeError):
        m.forward(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))


def test_external_mode_rejects_wrong_channels():
    m = build_model(ext_backbone(c=4, h=3, w=3), None, 4, rng=Rng(0))
    with pytest.raises(ShapeError):
        m.forward(Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c,h,w", [(32, 4, 4), (512, 7, 7), (64, 14, 14), (3, 5, 9), (2, 1, 3)])
def test_gap_head_bytes_match_full_map_avgpool(c, h, w, dtype):
    """The GAP head's output and feature-map gradient equal avgpool2d over the
    whole map, bit for bit."""
    m = build_model(ext_backbone(c, h, w), None, 2, rng=None, dtype=dtype)
    rng = Rng(c * h * w)
    x = rng.uniform_array((3, c, h, w), -1, 1, dtype=dtype)
    probe = Tensor(rng.uniform_array((3, c), -1, 1, dtype=dtype))
    fm, ref_fm = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    out = m.head_output(fm)
    ref = T.reshape(T.avgpool2d(ref_fm, h, w, 1), (3, c))
    T.backward(T.mul(out, probe).sum())
    T.backward(T.mul(ref, probe).sum())
    assert out.data.tobytes() == ref.data.tobytes()
    assert fm.grad.tobytes() == ref_fm.grad.tobytes()


def test_gap_head_output_length_is_spatial_free():
    for h, w in [(8, 8), (16, 16), (16, 24)]:
        m = build_model(tiny_backbone(h, w), None, 4, rng=Rng(0))
        x = Tensor(np.zeros((2, 3, h, w), dtype=np.float32))
        fm = m.feature_map(x)
        assert m.head_output(fm).shape == (2, 32)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def small_model(rng_seed=0):
    return build_model(
        BackboneConfig("tiny_cnn", (4, 6), (8, 8)), LcaConfig(5), 3,
        rng=Rng(rng_seed),
    )


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
    assert loaded.model.backbone == m.backbone
    assert loaded.model.head == m.head
    assert loaded.model.lca_cfg == m.lca_cfg
    assert loaded.model.num_classes == m.num_classes


@pytest.mark.parametrize("head,lca_cfg", [
    ("lca", LcaConfig(5, include_one_by_k=False)),
    ("gap", None),
], ids=["lca_without_one_by_k", "gap"])
def test_checkpoint_roundtrip_restores_head(tmp_path, head, lca_cfg):
    m = build_model(BackboneConfig("tiny_cnn", (4, 6), (8, 8)), lca_cfg, 3, rng=Rng(0))
    path = tmp_path / "m.lcac"
    save_checkpoint(m, path, velocities={}, epoch=0, rng_state=RNG_STATE)
    loaded = load_checkpoint(path).model
    assert loaded.lca_cfg == lca_cfg
    assert loaded.head == head


def test_save_load_save_is_byte_identical(tmp_path):
    m = small_model()
    vel = {p.name: np.zeros(p.shape, dtype=np.float32) for p in m.parameters()}
    a, b = tmp_path / "a.lcac", tmp_path / "b.lcac"
    save_checkpoint(m, a, velocities=vel, epoch=2, rng_state=RNG_STATE)
    loaded = load_checkpoint(a)
    save_checkpoint(loaded.model, b, velocities=loaded.velocities, epoch=loaded.epoch,
                    rng_state=loaded.rng_state)
    assert a.read_bytes() == b.read_bytes()


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

    @pytest.mark.parametrize("offset", [0, 1], ids=["backbone_tag", "head_tag"])
    def test_unknown_architecture_tag(self, blob, offset):
        path, raw = blob
        # The architecture block opens with four bytes (backbone tag, head
        # tag, 1xk flag, pad); after them come input size (8), channel count
        # and two channels (12), embed_dim and classes (8), an empty velocity
        # table (4), the epoch (8) and the rng state (32).
        at = len(raw) - (4 + 8 + 12 + 8 + 4 + 8 + 32) + offset
        path.write_bytes(raw[:at] + bytes([2]) + raw[at + 1:])
        with pytest.raises(CheckpointError, match="tags"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("lca_cfg", SimpleNamespace(embed_dim=0, include_one_by_k=True)),
        ("backbone", SimpleNamespace(kind="tiny_cnn", channels=(0, 6), input_size=(8, 8))),
    ], ids=["embed_dim_zero", "channel_zero"])
    def test_invalid_architecture(self, tmp_path, field, value):
        """Architecture fields the model constructors reject (embed_dim 0,
        a zero channel count) are a corrupt checkpoint, not a bad config."""
        m = small_model()
        setattr(m, field, value)
        path = tmp_path / "m.lcac"
        save_checkpoint(m, path, velocities={}, epoch=3, rng_state=RNG_STATE)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("lca_cfg", SimpleNamespace(embed_dim=2**31 - 1, include_one_by_k=True)),
        ("num_classes", 2**31 - 1),
        ("backbone", SimpleNamespace(kind="tiny_cnn", channels=(4, 2**31 - 1),
                                     input_size=(8, 8))),
    ], ids=["embed_dim", "num_classes", "last_channel"])
    def test_huge_architecture_field_allocates_nothing(self, tmp_path, field, value):
        """A size field patched far beyond the tensors the file holds is a
        corrupt checkpoint, caught before the model is built from it (at
        2**31-1 that build would ask for tens of GiB)."""
        m = small_model()
        setattr(m, field, value)
        path = tmp_path / "m.lcac"
        save_checkpoint(m, path, velocities={}, epoch=3, rng_state=RNG_STATE)
        with pytest.raises(CheckpointError, match="stored shape"):
            load_checkpoint(path)


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
    return max_entropy_loss(m.forward(x), labels, LossConfig(0.1))


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
