"""Timing lcanet from outside: wrappers around its public functions.

Nothing under ``src/lcanet`` knows it is measured. A wrapper replaces a
function everywhere lcanet looks it up: on its defining module and on every
lcanet module that bound the same object with ``from ... import``. Methods
are replaced on their class. ``Patches`` restores every original on exit.

Two instruments use this:

* ``Probe`` takes the few timestamps the untraced runs need: when each
  epoch's training batches are requested, when each ``SGD.step`` returns,
  and how long each ``evaluate`` call takes.
* ``Tracer`` records a span (name, start, end, parent) around every layer
  boundary and around the ``grad_fn`` of each tape node it sees created, so
  backward time is attributed to the op tag that recorded the node.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import Counter, defaultdict

import lcanet.data
import lcanet.losses
import lcanet.model
import lcanet.tensor
import lcanet.train
from lcanet.model import Model
from lcanet.optim import SGD
from lcanet.rng import Rng

# op tag -> function name in lcanet.tensor
TENSOR_OPS = {
    "conv2d": "conv2d",
    "maxpool2d": "maxpool2d",
    "avgpool2d": "avgpool2d",
    "matmul": "matmul",
    "relu": "relu",
    "add": "add",
    "sub": "sub",
    "scale": "scale",
    "transpose": "transpose",
    "reshape": "reshape",
    "sum": "tensor_sum",
    "log_softmax": "log_softmax",
}
LOSSES = {"nll": "nll_loss", "entropy": "entropy"}


class Patches:
    """Replace lcanet functions and methods; put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def function(self, module, name, make_wrapper):
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "lcanet":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# untraced runs: a handful of timestamps
# ---------------------------------------------------------------------------


class Probe:
    """Top-level timestamps of one ``run_training`` call."""

    def __init__(self):
        self.epoch_starts = []  # (time, training samples) per training-epoch batches() call
        self.step_ends = []
        self.eval_seconds = 0.0
        self.eval_samples = 0

    def install(self, patches: Patches) -> None:
        def batches(fn):
            def wrapper(dataset, batch_size, rng=None):
                if rng is not None:
                    self.epoch_starts.append((time.perf_counter(), len(dataset)))
                return fn(dataset, batch_size, rng=rng)
            return wrapper

        def step(fn):
            def wrapper(optim):
                fn(optim)
                self.step_ends.append(time.perf_counter())
            return wrapper

        def evaluate(fn):
            def wrapper(model, ds, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(model, ds, *args, **kwargs)
                self.eval_seconds += time.perf_counter() - t0
                self.eval_samples += len(ds)
                return out
            return wrapper

        patches.function(lcanet.train, "batches", batches)
        patches.method(SGD, "step", step)
        patches.function(lcanet.train, "evaluate", evaluate)

    def epochs(self):
        """Per training epoch: (seconds from batches() to its last step, samples,
        step intervals in seconds). The first interval starts at batches()."""
        starts = self.epoch_starts
        out = []
        for e, (t0, samples) in enumerate(starts):
            t1 = starts[e + 1][0] if e + 1 < len(starts) else float("inf")
            ends = [t for t in self.step_ends if t0 < t < t1]
            if not ends:
                continue
            marks = [t0] + ends
            out.append((ends[-1] - t0, samples, [b - a for a, b in zip(marks, marks[1:])]))
        return out


# ---------------------------------------------------------------------------
# traced run: spans at every layer boundary
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans. Span ``i`` is names[i], starts[i], ends[i], parents[i]
    (-1 for a root); children close before their parent."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self.lca_bwd = []  # spans of grad_fns whose node lca_forward created
        self._stack = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    # -- wrapper factories ---------------------------------------------------

    def span(self, name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                i = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if after is not None:
                    after(args, out)
                return out
            return wrapper
        return make

    def _timed_grad(self, name, grad_fn, from_lca):
        def run(g):
            i = self.open(name)
            try:
                return grad_fn(g)
            finally:
                self.close(i)
                self.counts["tensor.backward.nodes"] += 1
                if from_lca:
                    self.lca_bwd.append(i)
        return run

    def op(self, prefix):
        """Forward span, call/byte counts, and a timed grad_fn on the new node."""
        def make(fn):
            def wrapper(*args, **kwargs):
                i = self.open(prefix + ".fwd")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(i)
                self.counts[prefix + ".calls"] += 1
                self.counts[prefix + ".out_bytes"] += out.data.nbytes
                from_lca = self._inside("lca.forward")
                if from_lca and prefix == "tensor.avgpool2d":
                    self.counts["lca.kernels"] += 1
                    self.counts["lca.concepts"] += out.shape[2] * out.shape[3]
                if out.node is not None:
                    out.node.grad_fn = self._timed_grad(prefix + ".bwd", out.node.grad_fn, from_lca)
                return out
            return wrapper
        return make

    def generator(self, name):
        """Span each ``next`` of the generator the wrapped function returns."""
        def make(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def spanned():
                    while True:
                        i = self.open(name)
                        try:
                            item = next(inner, None)
                        finally:
                            self.close(i)
                        if item is None:
                            return
                        self.counts["data.samples"] += len(item.labels)
                        yield item
                return spanned()
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        for tag, fname in TENSOR_OPS.items():
            patches.function(lcanet.tensor, fname, self.op(f"tensor.{tag}"))
        for tag, fname in LOSSES.items():
            patches.function(lcanet.losses, fname, self.op(f"losses.{tag}"))
        patches.function(lcanet.tensor, "backward", self.span("tensor.backward"))
        patches.function(lcanet.model, "lca_forward", self.span("lca.forward"))
        patches.function(lcanet.model, "build_model", self.span("model.build"))

        def ckpt_size(args, _out):
            self.counts["model.ckpt_bytes"] = os.path.getsize(args[1])

        patches.function(lcanet.model, "save_checkpoint",
                         self.span("model.save_checkpoint", after=ckpt_size))
        patches.method(Model, "feature_map", self.span("model.feature_map"))
        patches.method(Model, "head_output", self.span("model.head_output"))
        patches.method(SGD, "step", self.span("optim.step"))
        patches.function(lcanet.data, "load_image_dir", self.span("data.load"))
        patches.function(lcanet.data, "load_feature_file", self.span("data.load"))
        patches.function(lcanet.data, "batches", self.generator("data.batches"))
        patches.function(lcanet.data, "augment", self.span("data.augment"))

        def draws(args, out):
            self.counts["rng.normal_draws"] += out.size

        patches.method(Rng, "normal_array", self.span("rng.normal_array", after=draws))
        patches.method(Rng, "permutation", self.span("rng.permutation"))
        patches.function(lcanet.train, "evaluate", self.span("train.evaluate"))
        patches.function(lcanet.train, "run_training", self.span("train.run_training"))

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Per span name: (total seconds, self seconds). Self time is a span's
        duration minus the durations of its child spans."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        total, self_s = defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return total, self_s, dur

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac, as {name: value}."""
        total, self_s, dur = self.totals()
        c = self.counts
        m = {}
        for tag in TENSOR_OPS:
            p = f"tensor.{tag}"
            m[p + ".fwd_s"] = total[p + ".fwd"]
            m[p + ".bwd_s"] = total[p + ".bwd"]
            m[p + ".calls"] = c[p + ".calls"]
            m[p + ".out_bytes"] = c[p + ".out_bytes"]
        m["tensor.backward.self_s"] = self_s["tensor.backward"]
        m["tensor.backward.nodes"] = c["tensor.backward.nodes"]
        lca_calls = self.names.count("lca.forward")
        m["lca.forward_s"] = total["lca.forward"]
        m["lca.self_s"] = self_s["lca.forward"]
        m["lca.bwd_s"] = sum(dur[i] for i in self.lca_bwd)
        m["lca.kernels"] = c["lca.kernels"] / lca_calls if lca_calls else 0
        m["lca.concepts"] = c["lca.concepts"] / lca_calls if lca_calls else 0
        for tag in LOSSES:
            p = f"losses.{tag}"
            m[p + ".fwd_s"] = total[p + ".fwd"]
            m[p + ".bwd_s"] = total[p + ".bwd"]
            m[p + ".calls"] = c[p + ".calls"]
        m["model.feature_map_s"] = total["model.feature_map"]
        m["model.head_output_s"] = total["model.head_output"]
        m["model.build_s"] = total["model.build"]
        m["model.save_checkpoint_s"] = total["model.save_checkpoint"]
        m["model.ckpt_bytes"] = c["model.ckpt_bytes"]
        m["optim.step_s"] = total["optim.step"]
        m["optim.steps"] = self.names.count("optim.step")
        m["data.load_s"] = total["data.load"]
        m["data.batches_s"] = total["data.batches"]
        m["data.augment_s"] = total["data.augment"]
        m["data.samples"] = c["data.samples"]
        m["rng.normal_array_s"] = total["rng.normal_array"]
        m["rng.normal_draws"] = c["rng.normal_draws"]
        m["rng.permutation_s"] = total["rng.permutation"]
        m["train.evaluate_s"] = total["train.evaluate"]
        m["train.loop_self_s"] = self_s["train.run_training"]
        return m

    def write(self, path: str) -> None:
        """Write every span, times relative to the first span, as gzipped JSON."""
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": spans}, fh, separators=(",", ":"))
