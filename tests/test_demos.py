"""The demos run to completion and clean up after themselves.

Each demo runs as its own process, as a user would start it, with the
system temp directory pointed at a fresh directory so that anything a demo
leaves behind there is seen. Every demo runs; demo 04 trains its two
heads on a small feature-map task in about 2 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = REPO / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_tensors_and_gradients.py",
        "02_local_concept_pooling.py",
        "03_entropy_regularized_loss.py",
        "04_lca_vs_gap_training.py",
        "05_external_feature_maps.py",
    ],
)
def test_demo_runs_and_leaves_no_temp_dirs(demo, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp.glob("lcanet_*"))
