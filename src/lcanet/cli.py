"""Command-line entry point.

Subcommands: ``train``, ``eval``, ``gradcheck``, ``synth``, ``inspect``.
Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O or data error (out of memory included), 4 numerical divergence.
A reader that closes stdout early (``lcanet train ... | head -1``) is not a
data error: the command's files are written by then, so it exits 0 quietly.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_mod, model as model_mod
from .config import ConfigError, load_config
from .data import DataError
from .gradcheck import run_suite
from .model import CheckpointError
from .tensor import NumericsError, ShapeError
from .train import check_split, evaluate, load_splits, run_training

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    summary = run_training(cfg, resume=args.resume)
    print(
        f"trained {summary.epochs_run} epoch(s): "
        f"train_acc={summary.final_train_acc:.4f}% "
        f"test_acc={summary.final_test_acc:.4f}% "
        f"loss={summary.final_train_loss:.6f}"
    )
    print(f"metrics: {summary.csv_path}")
    print(f"checkpoint: {summary.ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    loaded = model_mod.load_checkpoint(args.ckpt)
    model = loaded.model
    [ds] = load_splits(model.arch, {args.data: args.data})
    if len(ds) == 0:
        raise DataError(f"{args.data}: no samples")
    check_split(ds, model.arch.num_classes, args.data)

    result = evaluate(model, ds)
    print(f"accuracy={100.0 * result.accuracy:.4f}%")
    names = ds.class_names or [str(i) for i in range(model.arch.num_classes)]
    for cls, correct, total in result.per_class:
        pct = 100.0 * correct / total if total else 0.0
        print(f"class {cls} [{names[cls]}]: {pct:.4f}% ({correct}/{total})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<20} max_rel={r.max_rel:.3e}  tol={r.tol:g}  {status}")
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return EXIT_VERIFY
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def cmd_synth(args) -> int:
    train_ds, test_ds = data_mod.synth_glyphs(
        args.classes, args.per_class, args.test_per_class, args.seed
    )
    for split, ds in (("train", train_ds), ("test", test_ds)):
        for cls, name in enumerate(ds.class_names):
            cdir = os.path.join(args.out, split, name)
            os.makedirs(cdir, exist_ok=True)
            rows = np.flatnonzero(ds.labels == cls)
            for j, row in enumerate(rows):
                img = ds.inputs[row].transpose(1, 2, 0)
                data_mod.write_ppm(os.path.join(cdir, f"img_{j:04d}.ppm"), img)
    print(f"wrote {len(train_ds)} train + {len(test_ds)} test images under {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    loaded = model_mod.load_checkpoint(args.ckpt)
    arch = loaded.model.arch
    print(f"version: {model_mod.VERSION}")
    print(f"epoch: {loaded.epoch}")
    print(f"backbone: {arch.backbone} channels={arch.channels} "
          f"input={arch.input_size[0]}x{arch.input_size[1]}")
    head = arch.head
    if arch.embed_dim is not None:
        head += f" (embed_dim={arch.embed_dim})"
    print(f"head: {head}")
    print(f"classes: {arch.num_classes}")
    total = 0
    for p in loaded.model.parameters():
        shape = "x".join(str(d) for d in p.shape)
        print(f"  {p.name:<14} {shape:<12} {p.size}")
        total += p.size
    print(f"total parameters: {total}")
    print(f"optimizer velocities: {len(loaded.velocities)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcanet",
        description="Local-concepts pooling and entropy-regularized training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate the synthetic glyph dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=64)
    p.add_argument("--test-per-class", type=int, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="describe a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # The reader is gone and the work is done. Send what is left of stdout
        # to the null device, so that the flush at interpreter exit is silent.
        devnull = open(os.devnull, "w")
        try:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, OSError):
            pass  # stdout is not backed by a file descriptor
        sys.stdout = devnull
        return EXIT_OK
    except (DataError, CheckpointError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
