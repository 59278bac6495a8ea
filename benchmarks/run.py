"""lcanet benchmark: train a workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload glyph_lca_train --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all
    python3 benchmarks/run.py --smoke

Run from the repository root. For one workload, the last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(training steps) and ``metrics``, which holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The lines above
it print the same numbers for people. ``--workload all`` runs every
workload, untraced and then traced, and prints each run that way. Full records (environment, every rep, digests) and, for
traced runs, every span go to ``benchmarks/out/``. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# One process does all the work; BLAS gets one thread so that host
# contention, not thread scheduling, is the only source of spread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, every workload, traced and untraced; checks the metric schema")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    return args


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(result: dict, path: Path) -> None:
    env = result["environment"]
    reps = result["reps"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"reps {len(reps)} ({sum(not r['errors'] for r in reps)} ok)")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {_fmt(m['value']):>14} {m['unit']}")
    for name, m in result["reported"].items():
        note = "reported, not gated"
        if name == "failed_frac":
            note = f"{result['failed']} of {result['attempted']} attempted steps failed"
        print(f"  {name:<32} {_fmt(m['value']):>14} {m['unit']}  ({note})")
    if not result["trace"]:
        n = result["step_samples"]
        print(f"  step samples {n}: {n - math.ceil(0.9 * n)} beyond p90"
              + ("" if n >= 100 else " (fewer than ten: p90 is indicative only)"))
    for rep in reps:
        for err in rep["errors"]:
            print("  FAILED rep: " + err.strip().replace("\n", "\n    "))
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"x{env['blas_threads']} thread, nproc {env['nproc']}, rev {env['git_revision']}")
    print(f"inputs: {json.dumps(env['inputs'])}")
    print(f"record: {path.relative_to(BENCH_DIR.parent)}")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "lcanet").is_dir():
        print(f"error: lcanet sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import harness
    from workloads import WORKLOADS

    if args.smoke:
        problems = harness.smoke()
        for p in problems:
            print("smoke: " + p)
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, bool(args.trace))]
    else:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    for name, trace in runs:
        result, tracer = harness.run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        path = harness.save(result, tracer)
        _report(result, path)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
