"""End-to-end CLI behavior, run in-process through main(argv).

Each test drives the same code path as the installed console script; exit
codes and stdout formats are part of the tool's contract (0 ok,
1 verification failure, 2 config, 3 I/O or data, 4 numerical divergence).
"""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from lcanet import Rng, build_model, save_checkpoint, write_feature_file
from lcanet.cli import main
from lcanet.model import BackboneConfig
from lcanet.lca import LcaConfig


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def make_data(workdir, classes=2, per_class=4, test_per_class=2, seed=0):
    rc = main([
        "synth", "--out", "data", "--classes", str(classes),
        "--per-class", str(per_class), "--test-per-class", str(test_per_class),
        "--seed", str(seed),
    ])
    assert rc == 0
    return workdir / "data"


def write_cfg(workdir, name="run.cfg", **overrides):
    lines = {
        "seed": "0",
        "epochs": "1",
        "batch_size": "4",
        "data.train": "data/train",
        "data.test": "data/test",
        "ckpt.out": "model.lcac",
        "log.csv": "metrics.csv",
        "channels": "4,8",
        "lca.embed_dim": "8",
    }
    lines.update(overrides)
    path = workdir / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_the_tree(workdir, capsys):
    make_data(workdir, classes=3, per_class=4, test_per_class=2)
    out = capsys.readouterr().out
    assert "wrote 12 train + 6 test images" in out
    train_classes = sorted(os.listdir(workdir / "data" / "train"))
    assert train_classes == ["class_00", "class_01", "class_02"]
    files = os.listdir(workdir / "data" / "train" / "class_01")
    assert len(files) == 4 and all(f.endswith(".ppm") for f in files)
    assert len(os.listdir(workdir / "data" / "test" / "class_02")) == 2


def test_synth_same_seed_same_bytes(workdir):
    main(["synth", "--out", "a", "--classes", "2", "--per-class", "2",
          "--test-per-class", "1", "--seed", "5"])
    main(["synth", "--out", "b", "--classes", "2", "--per-class", "2",
          "--test-per-class", "1", "--seed", "5"])
    fa = workdir / "a" / "train" / "class_00" / "img_0000.ppm"
    fb = workdir / "b" / "train" / "class_00" / "img_0000.ppm"
    assert fa.read_bytes() == fb.read_bytes()


def test_synth_class_count_bound_is_config_error(workdir):
    assert main(["synth", "--out", "x", "--classes", "17",
                 "--per-class", "1", "--test-per-class", "0"]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_one_epoch_gap_lambda_zero(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir, head="gap", lambda_entropy="0")
    assert main(["train", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "trained 1 epoch(s)" in out

    rows = (workdir / "metrics.csv").read_text().strip().splitlines()
    assert rows[0] == (
        "epoch,train_loss,train_nll,train_entropy,train_acc,test_acc,lr,wall_seconds"
    )
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert cells[0] == "0"
    assert cells[1] == cells[2]  # lambda=0: loss column equals nll column
    assert (workdir / "model.lcac").exists()


def test_train_loss_identity_on_every_row(workdir):
    make_data(workdir)
    cfg = write_cfg(workdir, epochs="3", lambda_entropy="0.1")
    assert main(["train", "--config", str(cfg)]) == 0
    for row in (workdir / "metrics.csv").read_text().strip().splitlines()[1:]:
        _, loss, nll, ent = row.split(",")[:4]
        assert abs(float(loss) - (float(nll) - 0.1 * float(ent))) < 1e-6


def test_train_missing_config_exits_2(workdir):
    assert main(["train", "--config", "absent.cfg"]) == 2


def test_train_unknown_key_exits_2(workdir):
    cfg = workdir / "bad.cfg"
    cfg.write_text("epcohs = 3\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_train_config_not_utf8_exits_2(workdir, capsys):
    cfg = workdir / "latin1.cfg"
    cfg.write_bytes(b"seed = 1\n# caf\xe9 \xff\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "latin1.cfg" in capsys.readouterr().err


def test_train_missing_data_exits_3(workdir):
    cfg = write_cfg(workdir)  # data dirs not created
    assert main(["train", "--config", str(cfg)]) == 3


def test_train_external_features_with_two_channel_counts_exits_2(workdir, capsys):
    write_feature_file("feats.lcaf", np.zeros((4, 8, 4, 4), dtype=np.float32), [0, 1, 0, 1])
    cfg = write_cfg(workdir, backbone="external_features", channels="4,8",
                    **{"data.format": "lcaf", "data.train": "feats.lcaf",
                       "data.test": "feats.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "one channel count" in capsys.readouterr().err


def test_train_tiny_cnn_on_feature_file_exits_2(workdir, capsys):
    write_feature_file("feats.lcaf", np.zeros((4, 8, 4, 4), dtype=np.float32), [0, 1, 0, 1])
    cfg = write_cfg(workdir, **{"data.format": "lcaf", "data.train": "feats.lcaf",
                                "data.test": "feats.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data.format" in capsys.readouterr().err


def test_train_external_features_on_image_tree_exits_2(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir, backbone="external_features", channels="3")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data.format" in capsys.readouterr().err


def test_train_divergence_exits_4(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir, lr="1e30", epochs="2")
    assert main(["train", "--config", str(cfg)]) == 4
    assert "epoch" in capsys.readouterr().err


def test_train_resume_appends_rows(workdir):
    make_data(workdir)
    write_cfg(workdir, name="short.cfg", epochs="2")
    write_cfg(workdir, name="long.cfg", epochs="4", **{"ckpt.out": "final.lcac"})
    assert main(["train", "--config", str(workdir / "short.cfg")]) == 0
    assert main(["train", "--config", str(workdir / "long.cfg"),
                 "--resume", "model.lcac"]) == 0
    rows = (workdir / "metrics.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows] == ["epoch", "0", "1", "2", "3"]


def test_train_resume_from_older_checkpoint_drops_later_rows(workdir):
    """Resuming a 4-epoch run from its epoch-2 checkpoint rewrites epochs 2
    and 3 instead of appending them twice, and reproduces their rows."""
    make_data(workdir)
    write_cfg(workdir, name="short.cfg", epochs="2", **{"ckpt.out": "ep2.lcac"})
    long_cfg = write_cfg(workdir, name="long.cfg", epochs="4")
    assert main(["train", "--config", str(workdir / "short.cfg")]) == 0
    assert main(["train", "--config", str(long_cfg)]) == 0
    straight = (workdir / "metrics.csv").read_text().splitlines()
    assert main(["train", "--config", str(long_cfg), "--resume", "ep2.lcac"]) == 0
    resumed = (workdir / "metrics.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in resumed] == ["epoch", "0", "1", "2", "3"]
    assert resumed[:3] == straight[:3]
    assert [r.rsplit(",", 1)[0] for r in resumed] == [r.rsplit(",", 1)[0] for r in straight]


def test_train_resume_with_augmentation_is_exact(workdir):
    """With every augmentation knob on (noise included), 2 epochs plus a
    resume to 3 give the rows and checkpoint bytes of 3 epochs straight."""
    make_data(workdir)
    aug = {"aug.translate_px": "1", "aug.brightness": "0.1",
           "aug.noise_sigma": "0.05", "aug.hflip": "true"}
    straight_cfg = write_cfg(workdir, name="straight.cfg", epochs="3", **aug,
                             **{"ckpt.out": "straight.lcac", "log.csv": "straight.csv"})
    write_cfg(workdir, name="short.cfg", epochs="2", **aug)
    long_cfg = write_cfg(workdir, name="long.cfg", epochs="3", **aug)
    assert main(["train", "--config", str(straight_cfg)]) == 0
    assert main(["train", "--config", str(workdir / "short.cfg")]) == 0
    assert main(["train", "--config", str(long_cfg), "--resume", "model.lcac"]) == 0
    straight = (workdir / "straight.csv").read_text().splitlines()
    resumed = (workdir / "metrics.csv").read_text().splitlines()
    assert len(resumed) == 4
    assert [r.rsplit(",", 1)[0] for r in resumed] == [r.rsplit(",", 1)[0] for r in straight]
    assert (workdir / "model.lcac").read_bytes() == (workdir / "straight.lcac").read_bytes()


def test_train_translate_wider_than_the_image_exits_0(workdir, capsys):
    """aug.translate_px = 40 on 16x16 glyphs draws shifts that empty the frame."""
    make_data(workdir)
    cfg = write_cfg(workdir, **{"aug.translate_px": "40"})
    assert main(["train", "--config", str(cfg)]) == 0
    assert "trained 1 epoch(s)" in capsys.readouterr().out


def test_train_resume_into_foreign_csv_exits_3(workdir):
    make_data(workdir)
    cfg = write_cfg(workdir, epochs="2")
    assert main(["train", "--config", str(write_cfg(workdir, name="one.cfg"))]) == 0
    (workdir / "metrics.csv").write_text("not,a,metrics,header\n")
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3


def test_train_resume_beyond_epochs_exits_2(workdir):
    make_data(workdir)
    cfg = write_cfg(workdir, epochs="1")
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_prints_overall_and_per_class(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir, epochs="2")
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["eval", "--ckpt", "model.lcac", "--data", "data/test"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^accuracy=\d+\.\d{4}%$", out.splitlines()[0])
    assert "class 0 [class_00]:" in out and "class 1 [class_01]:" in out


def test_eval_is_repeatable(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir)
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    main(["eval", "--ckpt", "model.lcac", "--data", "data/test"])
    first = capsys.readouterr().out
    main(["eval", "--ckpt", "model.lcac", "--data", "data/test"])
    assert capsys.readouterr().out == first


def test_eval_zero_classifier_ties_to_class_zero(workdir, capsys):
    """All-zero logits argmax to index 0: class 0 scores 100%, the rest 0."""
    make_data(workdir, classes=2, per_class=2, test_per_class=2)
    model = build_model(
        BackboneConfig("tiny_cnn", (4, 8), (16, 16)), None, 2, rng=None
    )
    save_checkpoint(model, "zero.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    capsys.readouterr()  # drop the synth command's output
    assert main(["eval", "--ckpt", "zero.lcac", "--data", "data/test"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "accuracy=50.0000%"
    assert "class 0 [class_00]: 100.0000% (2/2)" in out
    assert "class 1 [class_01]: 0.0000% (0/2)" in out


def test_eval_missing_checkpoint_exits_3(workdir):
    assert main(["eval", "--ckpt", "ghost.lcac", "--data", "data"]) == 3


def test_eval_corrupt_checkpoint_exits_3(workdir):
    (workdir / "bad.lcac").write_bytes(b"LCACgarbage")
    assert main(["eval", "--ckpt", "bad.lcac", "--data", "data"]) == 3


def test_eval_format_mismatch_exits_3(workdir):
    make_data(workdir)
    write_feature_file("feats.lcaf",
                       np.zeros((1, 8, 4, 4), dtype=np.float32), [0])
    cfg = write_cfg(workdir)
    main(["train", "--config", str(cfg)])
    assert main(["eval", "--ckpt", "model.lcac", "--data", "feats.lcaf"]) == 3


def test_eval_feature_checkpoint_on_image_tree_exits_3(workdir, capsys):
    """The loader follows the checkpoint's backbone: an LCAF reader on a PPM tree."""
    make_data(workdir)
    model = build_model(
        BackboneConfig("external_features", (8,), (4, 4)), None, 2, rng=Rng(0)
    )
    save_checkpoint(model, "feat.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    capsys.readouterr()
    assert main(["eval", "--ckpt", "feat.lcac", "--data", "data/test"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


def test_eval_labels_beyond_model_classes_exit_3(workdir):
    make_data(workdir, classes=2)
    cfg = write_cfg(workdir)
    main(["train", "--config", str(cfg)])
    main(["synth", "--out", "more", "--classes", "4", "--per-class", "1",
          "--test-per-class", "1", "--seed", "1"])
    assert main(["eval", "--ckpt", "model.lcac", "--data", "more/test"]) == 3


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_passes_and_reports(workdir, capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "gradient checks passed" in out
    assert re.search(r"matmul\s+max_rel=\d\.\d{3}e[-+]\d+\s+tol=1e-06\s+PASS", out)
    assert "e2e_tiny_lca" in out


def test_gradcheck_mutation_fixture_exits_1(workdir, capsys):
    assert main(["gradcheck", "--mutate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "FAILED:" in out


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_lists_params_and_total(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir)
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["inspect", "--ckpt", "model.lcac"]) == 0
    out = capsys.readouterr().out
    assert "version: 1" in out
    assert "epoch: 1" in out
    assert "backbone: tiny_cnn channels=(4, 8) input=16x16" in out
    assert "head: lca" in out
    assert "fc_weight" in out and "cls_bias" in out
    listed = sum(
        int(m.group(1)) for m in re.finditer(r"^\s+\w+\s+\S+\s+(\d+)$", out, re.M)
    )
    total = int(re.search(r"total parameters: (\d+)", out).group(1))
    assert listed == total
    assert "optimizer velocities: 8" in out


def test_inspect_corrupt_magic_exits_3(workdir):
    (workdir / "junk.lcac").write_bytes(b"JUNKxxxxxxxx")
    assert main(["inspect", "--ckpt", "junk.lcac"]) == 3


def test_inspect_invalid_architecture_exits_3(workdir, capsys):
    model = build_model(
        BackboneConfig("tiny_cnn", (4, 8), (16, 16)), LcaConfig(4), 2, rng=None
    )
    model.lca_cfg = SimpleNamespace(embed_dim=0, include_one_by_k=True)
    save_checkpoint(model, "bad.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    assert main(["inspect", "--ckpt", "bad.lcac"]) == 3
    assert "embed_dim" in capsys.readouterr().err


def test_inspect_huge_embed_dim_exits_3(workdir, capsys):
    model = build_model(
        BackboneConfig("tiny_cnn", (4, 8), (16, 16)), LcaConfig(4), 2, rng=None
    )
    model.lca_cfg = SimpleNamespace(embed_dim=2**31 - 1, include_one_by_k=True)
    save_checkpoint(model, "huge.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    assert main(["inspect", "--ckpt", "huge.lcac"]) == 3
    assert "fc_weight" in capsys.readouterr().err
