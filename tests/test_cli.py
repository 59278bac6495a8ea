"""End-to-end CLI behavior, run in-process through main(argv).

Each test drives the same code path as the installed console script; exit
codes and stdout formats are part of the tool's contract (0 ok,
1 verification failure, 2 config, 3 I/O or data, 4 numerical divergence).
"""

import errno
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcanet.data
import lcanet.train
from lcanet import (Architecture, Rng, build_model, gradcheck, load_checkpoint, save_checkpoint,
                    write_feature_file, write_ppm)
from lcanet.cli import main


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


class _ClosedPipe:
    """A stdout whose reader has gone away, as under `lcanet ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_after_the_work_exits_0_quietly(workdir, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    rc = main(["synth", "--out", "data", "--classes", "2", "--per-class", "3",
               "--test-per-class", "1"])
    sys.stdout.close()  # the null device main put in the pipe's place
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert len(os.listdir(workdir / "data" / "train" / "class_01")) == 3
    assert len(os.listdir(workdir / "data" / "test" / "class_00")) == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_pipe_exits_0_in_a_child(workdir, unbuffered):
    """With a real pipe closed before the first write, neither the print nor
    the flush at interpreter exit reaches stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lcanet.cli", "synth", "--out", "data", "--classes", "2",
             "--per-class", "1", "--test-per-class", "1"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(os.listdir(workdir / "data" / "train" / "class_01")) == 1


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


def test_train_format_check_runs_before_any_read_exits_2(workdir, capsys):
    """The data paths do not exist: a data error (3) would mean a read came first."""
    cfg = write_cfg(workdir, **{"data.format": "lcaf", "data.train": "missing.lcaf",
                                "data.test": "missing.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data.format" in capsys.readouterr().err


def test_train_feature_channels_mismatch_exits_3_and_writes_nothing(workdir, capsys):
    write_feature_file("feats.lcaf", np.zeros((4, 8, 4, 4), dtype=np.float32), [0, 1, 0, 1])
    cfg = write_cfg(workdir, backbone="external_features", channels="4",
                    **{"data.format": "lcaf", "data.train": "feats.lcaf",
                       "data.test": "feats.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "channels" in err and "Traceback" not in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def _write_lcaf_bytes(path, maps, labels):
    """An LCAF file built with ``struct``, for maps ``write_feature_file`` refuses."""
    Path(path).write_bytes(b"LCAF" + struct.pack("<5I", 1, *maps.shape)
                           + maps.astype("<f4").tobytes() + np.asarray(labels, "<u4").tobytes())


def test_train_feature_maps_of_zero_height_exit_3(workdir, capsys):
    _write_lcaf_bytes("flat.lcaf", np.zeros((4, 8, 0, 4), dtype=np.float32), [0, 1, 0, 1])
    cfg = write_cfg(workdir, backbone="external_features", channels="8", head="gap",
                    **{"data.format": "lcaf", "data.train": "flat.lcaf",
                       "data.test": "flat.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def test_train_augmentation_on_feature_maps_exits_2_before_any_read(workdir, capsys):
    """The data paths do not exist: a data error (3) would mean a read came first."""
    cfg = write_cfg(workdir, backbone="external_features", channels="8",
                    **{"data.format": "lcaf", "data.train": "missing.lcaf",
                       "data.test": "missing.lcaf", "aug.hflip": "true"})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "aug.hflip" in err


@pytest.mark.parametrize("value", ["true", "false"])
def test_train_include_one_by_k_key_exits_2_and_writes_nothing(workdir, capsys, value):
    """The LCA head has one kernel set; a config that still chooses one, even
    the one it has, is refused by line."""
    make_data(workdir)
    cfg = write_cfg(workdir, **{"lca.include_one_by_k": value})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "line 10: unknown config key 'lca.include_one_by_k'" in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"channels": "16"}, "tiny_cnn takes exactly two channel counts"),
    ({"input_size": "3"}, "tiny_cnn needs input >= 4x4, got 3x3"),
    ({"input_size": "4"}, "lca head: no pooling kernel other than 1x1 fits a 1x1 map "
                          "(input (4, 4))"),
    ({"backbone": "external_features", "channels": "4,8", "data.format": "lcaf",
      "data.train": "feats.lcaf", "data.test": "feats.lcaf"},
     "external_features takes exactly one channel count"),
], ids=["tiny_cnn_one_channel_count", "tiny_cnn_3x3", "tiny_cnn_1x1_map_under_lca",
        "external_features_two_channel_counts"])
def test_train_unbuildable_architecture_exits_2_before_any_read(workdir, capsys, monkeypatch,
                                                                overrides, message):
    make_data(workdir)
    write_feature_file("feats.lcaf", np.zeros((4, 8, 4, 4), dtype=np.float32), [0, 1, 0, 1])
    cfg = write_cfg(workdir, **overrides)
    capsys.readouterr()
    reads = []
    real_open = open

    def spy(file, *args, **kwargs):
        if str(file).endswith((".ppm", ".lcaf")):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert reads == []
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def test_train_divergence_exits_4(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir, lr="1e30", epochs="2")
    assert main(["train", "--config", str(cfg)]) == 4
    assert "epoch" in capsys.readouterr().err


def _maps_cfg(workdir, **overrides):
    """Two epochs, one step each, on 3x3x3 maps in train.lcaf and test.lcaf."""
    gen = np.random.default_rng(0)
    write_feature_file("train.lcaf", gen.standard_normal((4, 3, 3, 3), dtype=np.float32),
                       [0, 1, 0, 1])
    write_feature_file("test.lcaf", gen.standard_normal((2, 3, 3, 3), dtype=np.float32), [0, 1])
    return write_cfg(workdir, **{"backbone": "external_features", "channels": "3", "epochs": "2",
                                 "lca.embed_dim": "4", "data.format": "lcaf",
                                 "data.train": "train.lcaf", "data.test": "test.lcaf", **overrides})


def test_train_update_to_non_finite_parameters_exits_4_and_writes_no_row(workdir, capsys):
    """lr = 1e38 overflows fc_weight in the first step; the run stops there,
    before the epoch is evaluated, logged or saved."""
    cfg = _maps_cfg(workdir, lr="1e38", epochs="1")
    write_feature_file("train.lcaf", np.full((4, 3, 3, 3), 100, np.float32), [0, 1, 0, 1])
    assert main(["train", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err == ("numerical divergence: non-finite parameter fc_weight "
                                       "after the update at epoch 0, step 0\n")
    assert (workdir / "metrics.csv").read_text().splitlines()[1:] == []
    assert not (workdir / "model.lcac").exists()


def test_eval_on_maps_whose_logits_overflow_exits_4(workdir, capsys):
    """Finite maps of 1e38 overflow in the head; no argmax is taken."""
    assert main(["train", "--config", str(_maps_cfg(workdir, epochs="1"))]) == 0
    maps = np.ones((3, 3, 3, 3), np.float32)
    maps[1] = 1e38
    write_feature_file("big.lcaf", maps, [0, 1, 0])
    capsys.readouterr()
    assert main(["eval", "--ckpt", "model.lcac", "--data", "big.lcaf"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical divergence: non-finite logits for sample 1\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("split, command", [("train", "train"), ("test", "train"),
                                            ("test", "eval")])
def test_map_value_nan_or_inf_exits_3_and_writes_no_row(workdir, capsys, split, command, value):
    """One bad cell in sample 2 of either split is refused as data, before
    the step that would train on it or the evaluation that would score it.
    relu would map a NaN to 0, and a NaN in training would be blamed on a
    weight."""
    cfg = _maps_cfg(workdir, epochs="1")
    maps = np.random.default_rng(1).standard_normal((4, 3, 3, 3), dtype=np.float32)
    maps[2, 1, 2, 0] = value
    if command == "eval":
        assert main(["train", "--config", str(cfg)]) == 0
    _write_lcaf_bytes(f"{split}.lcaf", maps, [0, 1, 0, 1])
    capsys.readouterr()
    if command == "eval":
        assert main(["eval", "--ckpt", "model.lcac", "--data", "test.lcaf"]) == 3
    else:
        assert main(["train", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"data error: {split}.lcaf: sample 2 holds NaN or inf\n"
    if command == "train":
        assert (workdir / "metrics.csv").read_text().splitlines()[1:] == []
        assert not (workdir / "model.lcac").exists()


@pytest.mark.parametrize("change, message", [
    ("truncate", "train.lcaf: LCAF payload is"),
    ("rewrite", "train.lcaf: LCAF header changed since the file was loaded"),
])
def test_train_split_changed_between_epochs_exits_3(workdir, capsys, monkeypatch, change,
                                                    message):
    """The maps are read from the file as training goes, so each epoch first
    checks the headers; the first epoch's row and checkpoint stay as written."""
    cfg = _maps_cfg(workdir, **{"ckpt.out": "one.lcac", "log.csv": "one.csv", "epochs": "1"})
    assert main(["train", "--config", str(cfg)]) == 0
    cfg = _maps_cfg(workdir)
    evaluate = lcanet.train.evaluate

    def evaluate_then_change(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        if change == "truncate":
            with open("train.lcaf", "r+b") as fh:
                fh.truncate(os.fstat(fh.fileno()).st_size - 4)
        else:
            write_feature_file("train.lcaf", np.zeros((2, 3, 3, 3), np.float32), [0, 1])
        return result

    monkeypatch.setattr(lcanet.train, "evaluate", evaluate_then_change)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {message}") and "Traceback" not in err
    rows = (workdir / "metrics.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[0] for r in rows] == [
        r.rsplit(",", 1)[0] for r in (workdir / "one.csv").read_text().splitlines()]
    assert len(rows) == 2
    assert (workdir / "model.lcac").read_bytes() == (workdir / "one.lcac").read_bytes()


def test_train_split_cut_short_mid_epoch_exits_3_naming_it(workdir, capsys, monkeypatch):
    """Training reads each batch's maps as it goes: a file cut short after
    its first batch stops the run at the next one, with no row written."""
    cfg = _maps_cfg(workdir, batch_size="2", epochs="1")
    augment = lcanet.train.augment

    def augment_then_truncate(batch, *args):
        os.truncate("train.lcaf", 24 + batch.inputs[0].nbytes)
        return augment(batch, *args)

    monkeypatch.setattr(lcanet.train, "augment", augment_then_truncate)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: train.lcaf: LCAF file ends at byte 132, short of")
    assert (workdir / "metrics.csv").read_text() == lcanet.train.CSV_HEADER + "\n"
    assert not (workdir / "model.lcac").exists()


def test_train_csv_write_failure_leaves_no_temp_file(workdir, monkeypatch):
    cfg = _maps_cfg(workdir)
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def opener(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FullDisk(fh) if str(path).endswith(".csv.tmp") else fh

    monkeypatch.setattr(lcanet.data, "open", opener, raising=False)
    assert main(["train", "--config", str(cfg)]) == 3
    assert sorted(os.listdir(workdir)) == ["run.cfg", "test.lcaf", "train.lcaf"]


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


def test_train_resumes_a_checkpoint_without_conv_velocities(workdir, capsys):
    """Runs of the removed train.freeze_backbone key wrote velocities for the
    head and classifier only. Such a file still inspects, evaluates like the
    full one, and resumes as if its conv velocities were zero; the resumed
    checkpoint holds every velocity."""
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir, **{"ckpt.out": "full.lcac"}))]) == 0
    full = load_checkpoint("full.lcac")
    head_only = {n: v for n, v in full.velocities.items() if not n.startswith("conv")}
    zeroed = {n: v if n in head_only else np.zeros_like(v) for n, v in full.velocities.items()}
    for name, velocities in (("partial.lcac", head_only), ("zeroed.lcac", zeroed)):
        save_checkpoint(full.model, name, velocities=velocities, epoch=full.epoch,
                        rng_state=full.rng_state)
    capsys.readouterr()

    assert main(["inspect", "--ckpt", "partial.lcac"]) == 0
    assert "optimizer velocities: 4\n" in capsys.readouterr().out
    evals = []
    for name in ("partial.lcac", "full.lcac"):
        assert main(["eval", "--ckpt", name, "--data", "data/test"]) == 0
        evals.append(capsys.readouterr().out)
    assert evals[0] == evals[1]

    for name in ("partial", "zeroed"):
        cfg = write_cfg(workdir, name=f"{name}.cfg", epochs="2",
                        **{"ckpt.out": f"{name}-2.lcac", "log.csv": f"{name}.csv"})
        assert main(["train", "--config", str(cfg), "--resume", f"{name}.lcac"]) == 0
    resumed = load_checkpoint("partial-2.lcac")
    assert sorted(resumed.velocities) == sorted(full.velocities)
    assert (workdir / "partial-2.lcac").read_bytes() == (workdir / "zeroed-2.lcac").read_bytes()


def test_train_freeze_backbone_key_exits_2_and_writes_nothing(workdir, capsys):
    """The key is gone; a config that still sets it is refused by line."""
    make_data(workdir)
    cfg = write_cfg(workdir, **{"train.freeze_backbone": "true"})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "line 10: unknown config key 'train.freeze_backbone'" in capsys.readouterr().err
    assert not (workdir / "metrics.csv").exists() and not (workdir / "model.lcac").exists()


def test_train_translate_wider_than_the_image_exits_0(workdir, capsys):
    """aug.translate_px = 40 on 16x16 glyphs draws shifts that empty the frame."""
    make_data(workdir)
    cfg = write_cfg(workdir, **{"aug.translate_px": "40"})
    assert main(["train", "--config", str(cfg)]) == 0
    assert "trained 1 epoch(s)" in capsys.readouterr().out


def test_train_translate_beyond_the_randint_bound_exits_2_and_writes_nothing(workdir, capsys):
    """randint(2*t + 1) takes a bound of at most 2**64: t = 2**63 is a config error."""
    make_data(workdir)
    cfg = write_cfg(workdir, **{"aug.translate_px": str(2**63)})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "aug.translate_px" in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


@pytest.mark.parametrize("train_labels,test_labels,message", [
    ([], [0, 1], "training split is empty"),
    ([0, 0, 0, 0], [0, 0], "single class"),
    ([0, 1, 0, 1], [0, 2], "test split labels reach 2"),
    # A gap below the largest label; counting by label would ask for 32 GiB.
    ([0, 1, 0, 4294967295], [0, 1], "no sample of class 2"),
    ([0, 2, 0, 2], [0, 1], "no sample of class 1"),
], ids=["empty", "one_class", "test_label_beyond", "label_gap_to_2**32-1", "label_gap"])
def test_train_unusable_feature_split_exits_3(workdir, capsys, train_labels, test_labels,
                                              message):
    write_feature_file("train.lcaf", np.ones((len(train_labels), 4, 3, 3), np.float32),
                       train_labels)
    write_feature_file("test.lcaf", np.ones((len(test_labels), 4, 3, 3), np.float32),
                       test_labels)
    cfg = write_cfg(workdir, backbone="external_features", channels="4",
                    **{"data.format": "lcaf", "data.train": "train.lcaf",
                       "data.test": "test.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err and "Traceback" not in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def test_train_test_tree_with_other_classes_exits_3_and_writes_nothing(workdir, capsys):
    """Each tree numbers its classes by sorted directory name, so a test tree
    without class_00 would call class_02 label 1."""
    make_data(workdir, classes=3)
    shutil.rmtree(workdir / "data" / "test" / "class_00")
    capsys.readouterr()
    assert main(["train", "--config", str(write_cfg(workdir))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "['class_01', 'class_02']" in err and "['class_00', 'class_01', 'class_02']" in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_ppm_sample_above_maxval_exits_3_and_writes_nothing(workdir, capsys, command):
    """A sample of 200 under maxval 15 would load as 13.33, outside [0, 1]."""
    make_data(workdir)
    bad = Path("data") / "train" / "class_01" / "img_0001.ppm"
    bad.write_bytes(b"P6\n1 1\n15\n" + bytes([200, 0, 15]))
    if command == "train":
        argv = ["train", "--config", str(write_cfg(workdir))]
    else:
        model = build_model(Architecture("tiny_cnn", (4, 8), (16, 16), None, 2), rng=Rng(0))
        save_checkpoint(model, "model.lcac", velocities={}, epoch=1,
                        rng_state=Rng(0).state_bytes())
        argv = ["eval", "--ckpt", "model.lcac", "--data", "data/train"]
    before = sorted(os.listdir(workdir))
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"data error: {bad}: PPM sample exceeds maxval 15\n"
    assert captured.out == "" and sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("command", ["train", "eval"])
def test_ppm_path_that_is_a_directory_exits_3_and_writes_nothing(workdir, capsys, command):
    """A directory named x.ppm is listed with the images; the refusal names it."""
    make_data(workdir)
    bad = os.path.join("data", "train", "class_01", "x.ppm")
    os.mkdir(bad)
    if command == "train":
        argv = ["train", "--config", str(write_cfg(workdir))]
    else:
        model = build_model(Architecture("tiny_cnn", (4, 8), (16, 16), None, 2), rng=Rng(0))
        save_checkpoint(model, "model.lcac", velocities={}, epoch=1,
                        rng_state=Rng(0).state_bytes())
        argv = ["eval", "--ckpt", "model.lcac", "--data", "data/train"]
    before = sorted(os.listdir(workdir))
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"data error: [Errno 21] Is a directory: '{bad}'\n"
    assert captured.out == "" and sorted(os.listdir(workdir)) == before


def test_train_data_train_unset_exits_3(workdir, capsys):
    make_data(workdir)
    cfg = write_cfg(workdir, **{"data.train": ""})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "data.train is not set" in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def test_train_resume_into_csv_with_a_non_epoch_row_exits_3(workdir, capsys):
    """The bad row is refused before the CSV is rewritten: both files stay as they were."""
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    with open(workdir / "metrics.csv", "a") as fh:
        fh.write("total,1,2,3,4,5,6,7\n")
    csv, ckpt = (workdir / "metrics.csv").read_bytes(), (workdir / "model.lcac").read_bytes()
    cfg = write_cfg(workdir, name="two.cfg", epochs="2")
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "epoch number" in err
    assert (workdir / "metrics.csv").read_bytes() == csv
    assert (workdir / "model.lcac").read_bytes() == ckpt


def test_train_resume_into_a_csv_that_is_not_utf8_exits_3(workdir, capsys):
    """A byte that is not UTF-8 in the metrics CSV is refused, naming the
    file, before the CSV is rewritten: both files stay as they were."""
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    with open(workdir / "metrics.csv", "ab") as fh:
        fh.write(b"1,\xff\n")
    csv, ckpt = (workdir / "metrics.csv").read_bytes(), (workdir / "model.lcac").read_bytes()
    cfg = write_cfg(workdir, name="two.cfg", epochs="2")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: metrics.csv: not UTF-8") and "Traceback" not in err
    assert (workdir / "metrics.csv").read_bytes() == csv
    assert (workdir / "model.lcac").read_bytes() == ckpt


@pytest.mark.parametrize("epochs, message", [
    ((0, 1, 1, 2), "the row for epoch 1 follows the row for epoch 1"),
    ((1, 0, 2), "the row for epoch 0 follows the row for epoch 1"),
], ids=["duplicated_row", "swapped_pair"])
def test_train_resume_into_rows_that_repeat_an_epoch_exits_3(workdir, capsys, epochs, message):
    """Kept rows whose epochs do not rise strictly are refused, naming the
    file, before either file is rewritten: no epoch appears twice."""
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir, epochs="3"))]) == 0
    header, *rows = (workdir / "metrics.csv").read_text().splitlines(keepends=True)
    (workdir / "metrics.csv").write_text(header + "".join(rows[e] for e in epochs))
    csv, ckpt = (workdir / "metrics.csv").read_bytes(), (workdir / "model.lcac").read_bytes()
    cfg = write_cfg(workdir, name="four.cfg", epochs="4")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3
    assert capsys.readouterr().err == (f"data error: metrics.csv: {message}; "
                                       f"not resuming into it\n")
    assert (workdir / "metrics.csv").read_bytes() == csv
    assert (workdir / "model.lcac").read_bytes() == ckpt


def test_train_resume_keeps_a_gap_in_the_epochs(workdir):
    """Rows may skip epochs (the CSV path changed between runs, say); the
    resumed run keeps them and adds its own."""
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir, epochs="3"))]) == 0
    header, *rows = (workdir / "metrics.csv").read_text().splitlines(keepends=True)
    (workdir / "metrics.csv").write_text(header + rows[0] + rows[2])
    cfg = write_cfg(workdir, name="four.cfg", epochs="4")
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 0
    rows = (workdir / "metrics.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["epoch", "0", "2", "3"]


def _zero_rng_state(path):
    """Overwrite the checkpoint's trailing 32-byte rng state with zeros."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-32] + bytes(32))


def test_train_resume_from_an_all_zero_rng_state_exits_3_and_changes_nothing(workdir, capsys):
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    _zero_rng_state(workdir / "model.lcac")
    csv, ckpt = (workdir / "metrics.csv").read_bytes(), (workdir / "model.lcac").read_bytes()
    cfg = write_cfg(workdir, name="two.cfg", epochs="2")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "not all zero" in err
    assert (workdir / "metrics.csv").read_bytes() == csv
    assert (workdir / "model.lcac").read_bytes() == ckpt


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_checkpoint_with_an_all_zero_rng_state_exits_3(workdir, capsys, command):
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    _zero_rng_state(workdir / "model.lcac")
    argv = [command, "--ckpt", "model.lcac"] + (["--data", "data/test"] if command == "eval" else [])
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "not all zero" in err


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Two steps of a 7x7x512 head with embed_dim 512 and batch 16: the
    fc_weight gradient reduces over H*W*B, which a multi-threaded BLAS splits
    by thread count. The command pins one thread, so both runs match."""
    gen = np.random.default_rng(0)
    write_feature_file(tmp_path / "maps.lcaf",
                       gen.standard_normal((32, 512, 7, 7), dtype=np.float32), np.arange(32) % 4)
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads_{threads}"
        run.mkdir()
        cfg = write_cfg(run, backbone="external_features", channels="512", batch_size="16",
                        **{"lca.embed_dim": "512", "data.format": "lcaf",
                           "data.train": "../maps.lcaf", "data.test": "../maps.lcaf"})
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "lcanet.cli", "train", "--config", str(cfg)],
                              cwd=run, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rows = (run / "metrics.csv").read_text().splitlines()
        runs.append(((run / "model.lcac").read_bytes(), [r.rsplit(",", 1)[0] for r in rows]))
    assert runs[0][1] == runs[1][1]
    assert runs[0][0] == runs[1][0]


def test_train_resume_into_foreign_csv_exits_3(workdir):
    make_data(workdir)
    cfg = write_cfg(workdir, epochs="2")
    assert main(["train", "--config", str(write_cfg(workdir, name="one.cfg"))]) == 0
    (workdir / "metrics.csv").write_text("not,a,metrics,header\n")
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3


@pytest.mark.parametrize("overrides", [
    {"lca.embed_dim": "6"}, {"head": "gap"}, {"channels": "4,6"},
], ids=["embed_dim", "head", "channels"])
def test_train_resume_against_another_architecture_exits_3(workdir, capsys, overrides):
    """The checkpoint is refused and neither it nor the metrics CSV changes."""
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    csv, ckpt = (workdir / "metrics.csv").read_bytes(), (workdir / "model.lcac").read_bytes()
    cfg = write_cfg(workdir, name="other.cfg", epochs="2", **overrides)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "does not match config" in err
    assert (workdir / "metrics.csv").read_bytes() == csv
    assert (workdir / "model.lcac").read_bytes() == ckpt


@pytest.mark.parametrize("key", ["ckpt.out", "log.csv"])
def test_train_output_onto_a_directory_exits_3_and_leaves_no_temp_file(workdir, capsys, key):
    """The atomic write's rename onto a directory fails; its temp file is removed."""
    make_data(workdir)
    (workdir / "taken").mkdir()
    (workdir / "taken" / "keep.txt").write_text("kept\n")
    cfg = write_cfg(workdir, **{key: "taken"})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert not (workdir / "taken.tmp").exists()
    assert os.listdir(workdir / "taken") == ["keep.txt"]
    assert (workdir / "taken" / "keep.txt").read_text() == "kept\n"


def _spy_data_reads(monkeypatch):
    """Record every PPM or LCAF file opened from here on."""
    reads = []
    real_open = open

    def spy(file, *args, **kwargs):
        if str(file).endswith((".ppm", ".lcaf")):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    return reads


def _tree(root):
    """Every path under ``root`` with its bytes (None for a directory or a link)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() and not p.is_symlink() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("key", ["ckpt.out", "log.csv"])
@pytest.mark.parametrize("path, message", [
    ("taken", "taken is a directory"),
    ("nodir/m.out", "nodir/m.out: no directory nodir"),
], ids=["directory", "missing_directory"])
def test_train_unwritable_output_exits_3_before_any_read(workdir, capsys, monkeypatch, key,
                                                         path, message):
    """An output that is a directory, or whose directory does not exist, is
    refused, naming the key and the path, before any data file is opened."""
    (workdir / "taken").mkdir()
    cfg = _maps_cfg(workdir, **{key: path})
    before = _tree(workdir)
    capsys.readouterr()
    reads = _spy_data_reads(monkeypatch)
    assert main(["train", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"data error: {key} {message}\n"
    assert reads == []
    assert _tree(workdir) == before


@pytest.mark.parametrize("setup, overrides, message", [
    (None, {"log.csv": "train.lcaf"}, "log.csv train.lcaf would overwrite data.train train.lcaf"),
    (None, {"ckpt.out": "test.lcaf"}, "ckpt.out test.lcaf would overwrite data.test test.lcaf"),
    (None, {"log.csv": "model.lcac"}, "ckpt.out model.lcac would overwrite log.csv model.lcac"),
    (lambda: shutil.copy("train.lcaf", "train.tmp"),
     {"log.csv": "train", "data.train": "train.tmp"},
     "log.csv temp file train.tmp would overwrite data.train train.tmp"),
    (None, {"log.csv": "./train.lcaf"},
     "log.csv ./train.lcaf would overwrite data.train train.lcaf"),
    (lambda: os.symlink(".", "here"), {"ckpt.out": "here/test.lcaf"},
     "ckpt.out here/test.lcaf would overwrite data.test test.lcaf"),
    (lambda: os.symlink(".", "here"), {"log.csv": "here/model.lcac"},
     "ckpt.out model.lcac would overwrite log.csv here/model.lcac"),
    (lambda: os.link("train.lcaf", "metrics.csv.tmp"), {},
     "log.csv temp file metrics.csv.tmp would overwrite data.train train.lcaf"),
    (None, {"backbone": "tiny_cnn", "channels": "4,8", "lca.embed_dim": "8", "data.format": "ppm",
            "data.train": "data/train", "data.test": "data/test",
            "ckpt.out": "data/train/model.lcac"},
     "ckpt.out data/train/model.lcac lies inside data.train data/train"),
], ids=["log_csv_is_data_train", "ckpt_out_is_data_test", "log_csv_is_ckpt_out",
        "csv_temp_file_is_data_train", "dot_slash_alias", "symlinked_directory",
        "symlinked_outputs", "hard_link", "inside_a_ppm_tree"])
def test_train_output_that_would_overwrite_a_file_exits_2_and_changes_nothing(
        workdir, capsys, monkeypatch, setup, overrides, message):
    """Outputs that name an input, a file inside an input tree, or each
    other (their temp files included) are refused before any file is
    opened: every input keeps its bytes, and no CSV, checkpoint or temp file
    appears."""
    make_data(workdir)
    cfg = _maps_cfg(workdir, **overrides)
    if setup:
        setup()
    before = _tree(workdir)
    capsys.readouterr()
    reads = _spy_data_reads(monkeypatch)
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert reads == []
    assert _tree(workdir) == before


def test_train_data_train_may_equal_data_test(workdir):
    cfg = _maps_cfg(workdir, **{"data.test": "train.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 0


def test_train_resume_with_invalid_config_architecture_exits_2(workdir, capsys):
    make_data(workdir)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    csv, ckpt = (workdir / "metrics.csv").read_bytes(), (workdir / "model.lcac").read_bytes()
    cfg = write_cfg(workdir, name="small.cfg", epochs="2", input_size="3")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", "model.lcac"]) == 2
    assert "4x4" in capsys.readouterr().err
    assert (workdir / "metrics.csv").read_bytes() == csv
    assert (workdir / "model.lcac").read_bytes() == ckpt


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
    model = build_model(Architecture("tiny_cnn", (4, 8), (16, 16), None, 2), rng=Rng(0))
    for p in model.parameters():
        p.data[...] = 0.0
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
    model = build_model(Architecture("external_features", (8,), (4, 4), None, 2), rng=Rng(0))
    save_checkpoint(model, "feat.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    capsys.readouterr()
    assert main(["eval", "--ckpt", "feat.lcac", "--data", "data/test"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


def test_eval_feature_maps_of_another_extent_exit_3(workdir, capsys):
    """A checkpoint built for 5x5 maps refuses 9x9 maps of the same channel count."""
    model = build_model(Architecture("external_features", (4,), (5, 5), 8, 2), rng=Rng(0))
    save_checkpoint(model, "feat.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    write_feature_file("big.lcaf", np.zeros((2, 4, 9, 9), dtype=np.float32), [0, 1])
    capsys.readouterr()
    assert main(["eval", "--ckpt", "feat.lcac", "--data", "big.lcaf"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "big.lcaf split maps are (4, 9, 9)" in err  # refused before any batch runs


def test_train_test_split_of_another_extent_exits_3(workdir, capsys):
    write_feature_file("train.lcaf", np.zeros((4, 4, 5, 5), dtype=np.float32), [0, 1, 0, 1])
    write_feature_file("test.lcaf", np.zeros((2, 4, 9, 9), dtype=np.float32), [0, 1])
    cfg = write_cfg(workdir, backbone="external_features", channels="4",
                    **{"data.format": "lcaf", "data.train": "train.lcaf",
                       "data.test": "test.lcaf"})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


@pytest.mark.parametrize("train, test, channels, command, code, message", [
    ("dots", "dots", "8", "train", 2, "lca head: no pooling kernel"),
    ("maps", "narrow", "4", "train", 3, "training split maps are (8, 5, 5)"),
    ("maps", "big", "8", "train", 3, "test split maps are (8, 9, 9)"),
    ("maps", "maps", "8", "eval", 3, "big.lcaf split maps are (8, 9, 9)"),
], ids=["lca_on_1x1_maps", "channels_not_the_maps_c", "test_split_of_another_extent",
        "eval_on_maps_of_another_extent"])
def test_refusal_from_lcaf_headers_reads_no_payload(workdir, capsys, monkeypatch, train, test,
                                                    channels, command, code, message):
    """Each of these is settled from the LCAF headers alone: ``_read_at``,
    the payload read, never runs before the refusal, not even for the other
    split's file when that one is well formed."""
    write_feature_file("maps.lcaf", np.zeros((4, 8, 5, 5), np.float32), [0, 1, 0, 1])
    write_feature_file("big.lcaf", np.zeros((2, 8, 9, 9), np.float32), [0, 1])
    write_feature_file("dots.lcaf", np.zeros((4, 8, 1, 1), np.float32), [0, 1, 0, 1])
    write_feature_file("narrow.lcaf", np.zeros((2, 4, 5, 5), np.float32), [0, 1])
    cfg = write_cfg(workdir, backbone="external_features", channels=channels,
                    **{"data.format": "lcaf", "data.train": f"{train}.lcaf",
                       "data.test": f"{test}.lcaf"})
    argv = ["train", "--config", str(cfg)]
    if command == "eval":
        assert main(argv) == 0
        argv = ["eval", "--ckpt", "model.lcac", "--data", "big.lcaf"]
    capsys.readouterr()
    reads = []
    read_at = lcanet.data._read_at
    monkeypatch.setattr(lcanet.data, "_read_at", lambda *a: reads.append(a) or read_at(*a))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert reads == []
    lcanet.data.load_feature_file("maps.lcaf")
    assert reads, "the spy no longer sees the payload read"


def test_eval_tree_missing_a_class_directory_exits_3(workdir, capsys):
    """A 3-class model on a tree without class_00 would score class_01's
    images as class 0; the class count is refused before any batch runs."""
    make_data(workdir, classes=3, per_class=8, test_per_class=4, seed=1)
    assert main(["train", "--config", str(write_cfg(workdir))]) == 0
    shutil.rmtree(workdir / "data" / "test" / "class_00")
    capsys.readouterr()
    assert main(["eval", "--ckpt", "model.lcac", "--data", "data/test"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("data error: data/test split has 2 class directories, "
                   "but the model has 3 classes\n")


def _huge_allocations_refused() -> bool:
    """True where the kernel refuses a request far beyond RAM and swap at
    once (overcommit modes 0 and 2) instead of granting it lazily."""
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() in ("0", "2")
    except OSError:
        return False


def _two_image_tree(root):
    for cls in ("a", "b"):
        os.makedirs(root / cls)
        write_ppm(root / cls / "img.ppm", np.full((2, 2, 3), 0.5, dtype=np.float32))


# Resizing to 300000x300000 asks numpy for about 2 TiB in one request.
huge_size = pytest.mark.skipif(not _huge_allocations_refused(),
                               reason="the kernel would grant a 2 TiB request lazily")


@huge_size
def test_train_huge_input_size_exits_3(workdir, capsys):
    _two_image_tree(workdir / "tree")
    cfg = write_cfg(workdir, input_size="300000",
                    **{"data.train": "tree", "data.test": "tree"})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "300000x300000" in err
    assert "Traceback" not in err and "MemoryError" not in err


@huge_size
def test_eval_checkpoint_with_huge_input_size_exits_3(workdir, capsys):
    """No parameter shape depends on the input size, so a checkpoint can carry any."""
    _two_image_tree(workdir / "tree")
    model = build_model(Architecture("tiny_cnn", (4, 8), (300000, 300000), None, 2), rng=Rng(0))
    save_checkpoint(model, "huge.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    capsys.readouterr()
    assert main(["eval", "--ckpt", "huge.lcac", "--data", "tree"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "300000x300000" in err


@pytest.mark.parametrize("overrides,param", [
    pytest.param({"channels": "100000,100000"}, "conv2_weight",  # 720 GB of init draws
                 marks=huge_size),
    pytest.param({"channels": "16,32", "lca.embed_dim": "10000000000"}, "fc_weight",  # 2.5 TB
                 marks=huge_size),
    ({"channels": "4,100000000000000000000"}, "conv2_weight"),  # beyond numpy's size limit
])
def test_train_refused_parameter_allocation_exits_2(workdir, capsys, overrides, param):
    make_data(workdir)
    cfg = write_cfg(workdir, **overrides)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and param in err
    assert "Traceback" not in err and "MemoryError" not in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def test_train_input_size_beyond_numpy_size_limit_exits_3(workdir, capsys):
    _two_image_tree(workdir / "tree")
    cfg = write_cfg(workdir, input_size="100000000000000000000",
                    **{"data.train": "tree", "data.test": "tree"})
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "input_size" in err
    assert "Traceback" not in err
    assert not (workdir / "model.lcac").exists() and not (workdir / "metrics.csv").exists()


def test_eval_empty_feature_file_exits_3(workdir, capsys):
    model = build_model(Architecture("external_features", (4,), (3, 3), None, 2), rng=Rng(0))
    save_checkpoint(model, "feat.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    write_feature_file("empty.lcaf", np.zeros((0, 4, 3, 3), dtype=np.float32), [])
    assert main(["eval", "--ckpt", "feat.lcac", "--data", "empty.lcaf"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "no samples" in err


def test_eval_labels_beyond_model_classes_exit_3(workdir):
    make_data(workdir, classes=2)
    cfg = write_cfg(workdir)
    main(["train", "--config", str(cfg)])
    main(["synth", "--out", "more", "--classes", "4", "--per-class", "1",
          "--test-per-class", "1", "--seed", "1"])
    assert main(["eval", "--ckpt", "model.lcac", "--data", "more/test"]) == 3


def test_eval_out_of_memory_exits_3(workdir):
    """At D=512 the LCA head's [P, B*D] product for 256 maps of 14x14 is
    5.29 GiB; under a 3 GB address-space limit numpy refuses it in evaluate."""
    resource = pytest.importorskip("resource")
    model = build_model(Architecture("external_features", (2,), (14, 14), 512, 2), rng=Rng(0))
    save_checkpoint(model, "head.lcac", velocities={}, epoch=1, rng_state=Rng(0).state_bytes())
    write_feature_file("maps.lcaf", np.ones((256, 2, 14, 14), np.float32), np.arange(256) % 2)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 3 * 2**30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "lcanet.cli", "eval", "--ckpt", "head.lcac", "--data", "maps.lcaf"],
        env=env, capture_output=True, text=True, timeout=300, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("data error: out of memory:") and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_passes_and_reports(workdir, capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "gradient checks passed" in out
    assert re.search(r"matmul\s+max_rel=\d\.\d{3}e[-+]\d+\s+tol=1e-06\s+PASS", out)
    assert "e2e_tiny_lca" in out


def test_gradcheck_mutation_fixture_exits_1(workdir, capsys, monkeypatch):
    """A red check in the suite makes the command exit 1 and name it."""
    monkeypatch.setattr(gradcheck, "_CHECKS", [("always_red", lambda rng: 1.0, 1e-6)])
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "FAILED: always_red" in out


def test_gradcheck_takes_no_option_but_seed(workdir, capsys):
    with pytest.raises(SystemExit):
        main(["gradcheck", "--help"])
    out = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help", "--seed"}


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


def _save_patched(path, embed_dim, offset, value: bytes):
    """Save a tiny_cnn (4, 8) checkpoint with no velocities, and write
    ``value`` ``offset`` bytes into its architecture block: four tag bytes
    (backbone, head, kernel set, pad), input size (4), channel count and
    channels (12, 16, 20), embed_dim (24), classes (28). The velocity count,
    the epoch and the rng state follow it."""
    model = build_model(Architecture("tiny_cnn", (4, 8), (16, 16), embed_dim, 2), rng=Rng(0))
    save_checkpoint(model, path, velocities={}, epoch=0, rng_state=Rng(0).state_bytes())
    raw = Path(path).read_bytes()
    at = len(raw) - (4 + 8 + 12 + 8 + 4 + 8 + 32) + offset
    Path(path).write_bytes(raw[:at] + value + raw[at + len(value):])


def test_inspect_invalid_architecture_exits_3(workdir, capsys):
    _save_patched("bad.lcac", 4, 24, (0).to_bytes(4, "little"))
    assert main(["inspect", "--ckpt", "bad.lcac"]) == 3
    assert "embed_dim" in capsys.readouterr().err


@pytest.mark.parametrize("embed_dim,offset,value", [(4, 0, 5), (None, 24, 7)],
                         ids=["backbone_tag", "gap_embed_dim"])
def test_inspect_refused_architecture_names_the_file(workdir, capsys, embed_dim, offset, value):
    """An unknown backbone tag, or a GAP head's nonzero embed_dim field, is a
    data error that names the checkpoint."""
    _save_patched("bad.lcac", embed_dim, offset, bytes([value]))
    capsys.readouterr()
    assert main(["inspect", "--ckpt", "bad.lcac"]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("data error: bad.lcac: ") and out == ""


@pytest.mark.parametrize("command", ["eval", "inspect", "train_resume"])
def test_checkpoint_with_square_kernels_on_a_1x4_map_exits_3(workdir, capsys, command):
    """A kernel-set byte of 0 on an LCA file marks a head trained on square
    kernels only, a set no longer built: every reader refuses the file and
    nothing is written."""
    model = build_model(Architecture("external_features", (3,), (1, 4), 4, 2), rng=Rng(0))
    save_checkpoint(model, "row.lcac", velocities={}, epoch=0,
                    rng_state=Rng(0).state_bytes())
    raw = (workdir / "row.lcac").read_bytes()
    # The architecture block (backbone tag, head tag, kernel-set byte, pad,
    # input size, one channel, embed_dim, classes) precedes an empty
    # velocity table, the epoch and the rng state.
    at = len(raw) - (4 + 8 + 8 + 8 + 4 + 8 + 32) + 2
    assert raw[at] == 1
    raw = raw[:at] + b"\x00" + raw[at + 1:]
    (workdir / "row.lcac").write_bytes(raw)
    write_feature_file("row.lcaf", np.ones((2, 3, 1, 4), dtype=np.float32), [0, 1])
    if command == "train_resume":
        cfg = write_cfg(workdir, backbone="external_features", channels="3",
                        **{"lca.embed_dim": "4", "data.format": "lcaf", "data.train": "row.lcaf",
                           "data.test": "row.lcaf", "ckpt.out": "row.lcac"})
        argv = ["train", "--config", str(cfg), "--resume", "row.lcac"]
    else:
        argv = [command, "--ckpt", "row.lcac"]
        if command == "eval":
            argv += ["--data", "row.lcaf"]
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("data error:") and "kernel-set byte 0 on a lca head" in err
    assert out == ""
    assert (workdir / "row.lcac").read_bytes() == raw
    assert not (workdir / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["eval", "inspect", "train_resume"])
@pytest.mark.parametrize("table", ["param", "velocity"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_checkpoint_holding_nan_or_inf_exits_3_and_writes_nothing(workdir, capsys, value, table,
                                                                  command):
    """One NaN or inf in a parameter or a velocity makes every reader refuse
    the file, naming it and the tensor; nothing is printed or written."""
    model = build_model(Architecture("external_features", (3,), (2, 2), 4, 2), rng=Rng(0))
    velocities = {p.name: np.zeros(p.shape, np.float32) for p in model.parameters()}
    (model.param("cls_weight").data if table == "param" else velocities["cls_weight"])[1, 2] = value
    save_checkpoint(model, "bad.lcac", velocities=velocities, epoch=0,
                    rng_state=Rng(0).state_bytes())
    raw = (workdir / "bad.lcac").read_bytes()
    write_feature_file("maps.lcaf", np.ones((2, 3, 2, 2), dtype=np.float32), [0, 1])
    if command == "train_resume":
        cfg = write_cfg(workdir, backbone="external_features", channels="3", input_size="2x2",
                        **{"lca.embed_dim": "4", "data.format": "lcaf", "data.train": "maps.lcaf",
                           "data.test": "maps.lcaf", "ckpt.out": "out.lcac"})
        argv = ["train", "--config", str(cfg), "--resume", "bad.lcac"]
    else:
        argv = [command, "--ckpt", "bad.lcac"] + (["--data", "maps.lcaf"] if command == "eval" else [])
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == f"data error: bad.lcac: {table} cls_weight holds NaN or inf\n"
    assert out == ""
    assert (workdir / "bad.lcac").read_bytes() == raw
    assert not (workdir / "metrics.csv").exists() and not (workdir / "out.lcac").exists()


def test_inspect_huge_embed_dim_exits_3(workdir, capsys):
    _save_patched("huge.lcac", 4, 24, (2**31 - 1).to_bytes(4, "little"))
    assert main(["inspect", "--ckpt", "huge.lcac"]) == 3
    assert "fc_weight" in capsys.readouterr().err
