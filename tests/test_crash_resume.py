"""Crash injection: a run that dies at any write and is resumed ends in the
bytes of a run that never crashed.

Each write point of ``run_training`` raises in turn, at every occurrence in
a short run: the CSV temp-file write (the header, then the whole file after
each epoch), the checkpoint temp-file write, ``os.fsync`` and
``os.replace``. The run is then resumed from its checkpoint, or started
afresh when none was written yet, and its metrics rows (without
``wall_seconds``) and checkpoint bytes must equal a straight run's.
"""

import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lcanet import data as data_mod, write_feature_file
from lcanet.config import parse_config
from lcanet.train import CSV_HEADER, run_training

POINTS = ("csv temp write", "checkpoint temp write", "fsync", "replace")


class Crash(Exception):
    pass


class Tripwire:
    """Counts the calls at each write point; raises at the chosen one."""

    def __init__(self, point=None, at=None):
        self.point, self.at = point, at
        self.calls = Counter()

    def hit(self, point):
        n = self.calls[point]
        self.calls[point] += 1
        if (point, n) == (self.point, self.at):
            raise Crash(f"{point} #{n}")


class File:
    def __init__(self, fh, trip, point):
        self.fh, self.trip, self.point = fh, trip, point

    def write(self, data):
        self.trip.hit(self.point)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def armed(mp, trip):
    """Route every write point of a run through ``trip``. The CSV and the
    checkpoint share one temp-file writer, ``data._replace_file``; the temp
    file's suffix tells their writes apart."""
    def opener(points):
        def fake_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            for (want, suffix), point in points.items():
                if mode == want and str(path).endswith(suffix):
                    return File(fh, trip, point)
            return fh
        return fake_open

    def wrap(point, real):
        def fake(*args):
            trip.hit(point)
            return real(*args)
        return fake

    mp.setattr(data_mod, "open", opener({("wb", ".csv.tmp"): "csv temp write",
                                         ("wb", ".lcac.tmp"): "checkpoint temp write"}),
               raising=False)
    mp.setattr(os, "fsync", wrap("fsync", os.fsync))
    mp.setattr(os, "replace", wrap("replace", os.replace))


def config(run_dir, feats):
    """Three epochs on feature maps, crossing the lr step at epoch 1."""
    return parse_config(
        f"seed = 4\nepochs = 3\nbatch_size = 4\nlr = 0.05\nlr_step_epoch = 1\n"
        f"lr_step_factor = 0.5\nweight_decay = 0.01\nbackbone = external_features\n"
        f"channels = 3\nlca.embed_dim = 4\ndata.format = lcaf\n"
        f"data.train = {feats}\ndata.test = {feats}\n"
        f"ckpt.out = {run_dir / 'model.lcac'}\nlog.csv = {run_dir / 'log.csv'}\n"
    )


def outputs(run_dir):
    rows = (run_dir / "log.csv").read_text().splitlines()
    return [r.rsplit(",", 1)[0] for r in rows], (run_dir / "model.lcac").read_bytes()


def test_a_crash_at_any_write_resumes_to_the_straight_run(tmp_path):
    gen = np.random.default_rng(3)
    feats = tmp_path / "feats.lcaf"
    write_feature_file(feats, gen.standard_normal((10, 3, 3, 3), dtype=np.float32),
                       np.arange(10) % 2)
    straight = tmp_path / "straight"
    straight.mkdir()
    counts = Tripwire()
    with pytest.MonkeyPatch.context() as mp:
        armed(mp, counts)
        run_training(config(straight, feats))
    assert counts.calls == {"csv temp write": 4, "checkpoint temp write": 3, "fsync": 3,
                            "replace": 7}
    want = outputs(straight)

    cases = [(p, n) for p in POINTS for n in range(counts.calls[p])]
    assert len(cases) == 17
    for point, n in cases:
        run_dir = tmp_path / f"{point.replace(' ', '_')}_{n}"
        run_dir.mkdir()
        cfg = config(run_dir, feats)
        with pytest.MonkeyPatch.context() as mp:
            armed(mp, Tripwire(point, n))
            with pytest.raises(Crash):
                run_training(cfg)
        ckpt = run_dir / "model.lcac"
        run_training(cfg, resume=str(ckpt) if ckpt.exists() else None)
        assert outputs(run_dir) == want, (point, n)


def test_the_csv_is_written_whole_with_one_more_row_each_epoch(tmp_path, monkeypatch):
    """Each write of the metrics CSV is the whole file: the header first,
    then the previous write plus one row per epoch. A resumed run's first
    write is the header and the rows it keeps."""
    gen = np.random.default_rng(3)
    feats = tmp_path / "feats.lcaf"
    write_feature_file(feats, gen.standard_normal((10, 3, 3, 3), dtype=np.float32),
                       np.arange(10) % 2)
    cfg = config(tmp_path, feats)
    writes = []
    real = data_mod._replace_file

    def spy(path, write):
        real(path, write)
        if path == cfg.log_csv:
            writes.append((tmp_path / "log.csv").read_text())

    monkeypatch.setattr(data_mod, "_replace_file", spy)
    run_training(cfg)
    assert writes[0] == CSV_HEADER + "\n" and len(writes) == 4
    for epoch, (before, after) in enumerate(zip(writes, writes[1:])):
        row = after[len(before):]
        assert after.startswith(before) and row.count("\n") == 1 and row.endswith("\n")
        assert row.split(",")[0] == str(epoch) and row.count(",") == CSV_HEADER.count(",")

    writes.clear()
    run_training(replace(cfg, epochs=2))
    two_epochs = writes[-1]
    writes.clear()
    run_training(cfg, resume=str(tmp_path / "model.lcac"))
    assert writes[0] == two_epochs and len(writes) == 2
