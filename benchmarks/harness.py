"""One benchmark invocation: training reps, output checks, digests, metrics.

A rep is one ``lcanet.train.run_training`` call on the workload's config,
from a fresh start. Untraced reps repeat until the time budget is spent,
and the end-to-end metrics are taken over all of them. With tracing on,
half the budget goes to untraced reps and one traced rep follows; its spans
give the per-layer metrics, and its wall time against the untraced mean
gives the tracing overhead.

Every rep's outputs are checked and digested. A rep that raises, fails a
check, or whose digests differ from the first good rep of the invocation
counts all of its planned steps as failed; nothing here lets it crash the
benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lcanet.train
from lcanet.config import parse_config
from lcanet.data import load_feature_file, load_image_dir
from lcanet.model import load_checkpoint
from lcanet.train import CSV_HEADER, evaluate
from tracer import Patches, Probe, Tracer
from workloads import SMOKE_WORKLOADS, Workload, config_text, generate

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

# Gated end-to-end metrics (BENCHMARK.json "end_to_end") and their units.
END_TO_END_UNITS = {
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "step_ms_p90": "ms",
    "train_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_train_loss": "nats",
}
# Printed and recorded but not gated: across seeds the first two spread past
# any allowed bound (host spells make step times bimodal, and the median
# flips between the modes; test accuracy after a short glyph rep is near
# chance), and failed_frac is 0 on correct code.
REPORTED_UNITS = {"step_ms_p50": "ms", "final_test_acc": "%", "failed_frac": "ratio"}
SETUP_PROBES = 4  # extra set-up samples taken after each untraced rep
COUNT_SUFFIXES = (".calls", ".nodes", ".kernels", ".concepts", ".steps", ".samples", ".normal_draws")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name == "trace.overhead_frac":
        return "ratio"
    raise KeyError(name)


@dataclass
class Rep:
    traced: bool
    steps: int  # planned training steps
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: list = field(default_factory=list)  # the rep's own, then its probes'
    train_s: float = 0.0
    train_samples: int = 0
    eval_s: float = 0.0
    eval_samples: int = 0
    step_s: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    final_train_loss: float = math.nan
    final_test_acc: float = math.nan
    layers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# output checks and digests
# ---------------------------------------------------------------------------


def check_outputs(cfg, test_ds, rep: Rep) -> list:
    """Problems with a finished rep's CSV and checkpoint; empty when correct."""
    with open(cfg.log_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header {lines[:1]} != {CSV_HEADER!r}"]
    cols = CSV_HEADER.split(",")
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != cfg.epochs:
        problems.append(f"CSV has {len(rows)} rows, expected {cfg.epochs}")
    for row in rows:
        if len(row) != len(cols):
            problems.append(f"CSV row {row} has {len(row)} fields")
            continue
        rec = dict(zip(cols, (float(v) for v in row)))
        if not all(math.isfinite(v) for v in rec.values()):
            problems.append(f"non-finite value in CSV row {row}")
        identity = rec["train_nll"] - cfg.lambda_entropy * rec["train_entropy"]
        if abs(rec["train_loss"] - identity) > 1e-6:
            problems.append(f"epoch {row[0]}: train_loss != nll - lambda*entropy")
    if problems or not rows:
        return problems or ["CSV has no rows"]

    last = dict(zip(cols, rows[-1]))
    reloaded = load_checkpoint(cfg.ckpt_out).model
    acc = f"{100.0 * evaluate(reloaded, test_ds, cfg.batch_size).accuracy:.4f}"
    if acc != last["test_acc"]:
        problems.append(f"reloaded checkpoint scores {acc}, CSV says {last['test_acc']}")

    keep = [k for k, c in enumerate(cols) if c != "wall_seconds"]
    stable_csv = "\n".join(",".join(line.split(",")[k] for k in keep) for line in lines)
    with open(cfg.ckpt_out, "rb") as fh:
        rep.digests["checkpoint_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    rep.digests["csv_sha256"] = hashlib.sha256(stable_csv.encode()).hexdigest()
    rep.final_train_loss = float(last["train_loss"])
    rep.final_test_acc = float(last["test_acc"])
    return problems


# ---------------------------------------------------------------------------
# reps
# ---------------------------------------------------------------------------


class _SetupDone(Exception):
    """Ends a set-up probe at its first training batch request."""


def probe_setup(cfg) -> float:
    """Seconds from entering run_training to its first training batch request.

    The probe stops the call there, so set-up can be sampled many times in a
    run at little cost; the code it times is the same as in a full rep.
    """
    def stop(fn):
        def wrapper(dataset, batch_size, rng=None):
            if rng is not None:
                raise _SetupDone(time.perf_counter())
            return fn(dataset, batch_size, rng=rng)
        return wrapper

    with Patches() as patches:
        patches.function(lcanet.train, "batches", stop)
        t0 = time.perf_counter()
        try:
            lcanet.train.run_training(cfg)
        except _SetupDone as done:
            return done.args[0] - t0
    raise RuntimeError("run_training returned without requesting a training batch")


def run_rep(w: Workload, cfg, test_ds, tracer: Tracer | None = None) -> Rep:
    rep = Rep(traced=tracer is not None, steps=w.steps_per_rep())
    for stale in (cfg.log_csv, cfg.ckpt_out):
        if os.path.exists(stale):
            os.remove(stale)
    probe = Probe()
    try:
        with Patches() as patches:
            (tracer or probe).install(patches)
            t0 = time.perf_counter()
            lcanet.train.run_training(cfg)
            rep.wall_s = time.perf_counter() - t0
        rep.errors += check_outputs(cfg, test_ds, rep)
        if tracer is None:
            rep.setup_s = [probe.epoch_starts[0][0] - t0]
            rep.setup_s += [probe_setup(cfg) for _ in range(SETUP_PROBES)]
    except Exception:  # the rep failed; record why and keep benchmarking
        rep.errors.append(traceback.format_exc())
        return rep

    if tracer is not None:
        rep.layers = tracer.layer_metrics()
    else:
        for seconds, samples, intervals in probe.epochs():
            rep.train_s += seconds
            rep.train_samples += samples
            rep.step_s += intervals
        rep.eval_s, rep.eval_samples = probe.eval_seconds, probe.eval_samples
    return rep


def _rate(count, seconds):
    return count / seconds if seconds else None


def end_to_end_metrics(reps: list) -> dict:
    """End-to-end metrics over the good untraced reps.

    Rates and wall time are totals over all those reps, not medians of
    per-rep values: the host alternates between fast and slow spells lasting
    seconds, and the pooled figure moves less with how a run's reps fall
    across them. Step times are pooled before taking percentiles.
    """
    ok = [r for r in reps if not r.errors and not r.traced]
    steps_ms = [1000.0 * s for r in ok for s in r.step_s]
    p50, p90 = np.percentile(steps_ms, [50, 90]).tolist() if steps_ms else (None, None)
    return {
        "train_samples_per_s": _rate(sum(r.train_samples for r in ok), sum(r.train_s for r in ok)),
        "eval_samples_per_s": _rate(sum(r.eval_samples for r in ok), sum(r.eval_s for r in ok)),
        "step_ms_p50": p50,
        "step_ms_p90": p90,
        "train_wall_s": statistics.mean(r.wall_s for r in ok) if ok else None,
        "setup_s": statistics.median(s for r in ok for s in r.setup_s) if ok else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_train_loss": ok[0].final_train_loss if ok else None,
        "final_test_acc": ok[0].final_test_acc if ok else None,
    }


def check_digests(reps: list) -> None:
    """Every rep of the invocation ran the same config and seed: all digests agree."""
    good = [r for r in reps if not r.errors]
    for r in good[1:]:
        if r.digests != good[0].digests:
            r.errors.append(f"digests {r.digests} differ from first rep {good[0].digests}")


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


def environment(w: Workload, seed: int, inputs: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = REPO / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = REPO / ".git" / ref.removeprefix("ref: ")
        rev = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "workload": w.name,
        "seed": seed,
        "inputs": inputs,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, min_reps: int = 1):
    """Generate inputs, run the reps, check them.

    Returns the full result record and the tracer (None when untraced)."""
    work = OUT / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(w, seed, str(work))
        cfg = parse_config(config_text(w, seed, str(work)))
        if w.kind == "glyph":
            test_ds = load_image_dir(cfg.data_test, cfg.input_size)
        else:
            test_ds = load_feature_file(cfg.data_test)

        reps = []
        budget = seconds / 2 if trace else seconds
        t0 = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - t0 < budget:
            reps.append(run_rep(w, cfg, test_ds))
        tracer = Tracer() if trace else None
        if trace:
            reps.append(run_rep(w, cfg, test_ds, tracer))
        check_digests(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.steps for r in reps)
    failed = sum(r.steps for r in reps if r.errors)
    e2e = end_to_end_metrics(reps)
    e2e["failed_frac"] = failed / attempted
    if trace:
        traced = reps[-1]
        layers = dict(traced.layers)
        if layers and e2e["train_wall_s"]:
            layers["trace.overhead_frac"] = traced.wall_s / e2e["train_wall_s"] - 1.0
        metrics = {name: layers.get(name) for name in layer_names()}
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {name: e2e[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reported": {k: {"value": e2e[k], "unit": u} for k, u in REPORTED_UNITS.items()},
        "step_samples": sum(len(r.step_s) for r in reps if not r.errors),
        "environment": environment(w, seed, inputs),
        "reps": [
            {k: v for k, v in vars(r).items() if k not in ("layers", "step_s")}
            | {"steps_measured": len(r.step_s)}
            for r in reps
        ],
    }
    return record, tracer


def layer_names() -> list:
    """Every per-layer metric the traced run reports."""
    return list(Tracer().layer_metrics()) + ["trace.overhead_frac"]


def save(result: dict, tracer: Tracer | None) -> Path:
    """Write the result record (and, for a traced run, every span) under out/."""
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}-spans.json.gz"))
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------


def smoke() -> list:
    """Run every workload on tiny inputs, untraced and traced; return problems.

    Checks that each run is correct and that it reports exactly the metrics
    BENCHMARK.json declares, each with the declared unit and a finite value.
    """
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, w in SMOKE_WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(w, seed=1, seconds=0, trace=trace, min_reps=2)
            tag = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{tag}: failed reps: {[r['errors'] for r in result['reps']]}")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics/units {sorted(set(got.items()) ^ set(want.items()))}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            for k, unit in REPORTED_UNITS.items():
                if result["reported"][k]["unit"] != unit or result["reported"][k]["value"] is None:
                    problems.append(f"{tag}: reported metric {k} missing")
    return problems
