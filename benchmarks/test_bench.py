"""Tests of the benchmark itself. Run with ``python -m pytest benchmarks``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

from tracer import Tracer  # noqa: E402


def test_smoke_mode_reports_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_run_prints_result_json_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "glyph_lca_train",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 48
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "glyph_lca_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.names = ["outer", "inner", "inner", "other"]
    tr.starts = [0.0, 1.0, 3.0, 10.0]
    tr.ends = [5.0, 2.0, 3.5, 11.0]
    tr.parents = [-1, 0, 0, -1]
    total, self_s, _ = tr.totals()
    assert total["outer"] == 5.0 and self_s["outer"] == 3.5
    assert total["inner"] == 1.5 and self_s["inner"] == 1.5
    assert self_s["other"] == 1.0
