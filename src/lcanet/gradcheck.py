"""Finite-difference verification of every registered adjoint rule.

``grad_check`` compares tape gradients against central differences; the
relative error for one coordinate is |analytic − numeric| / max(1, |analytic|,
|numeric|), and the reported figure is the max over all coordinates of all
checked leaves. Checks run in float64. ``run_suite`` packages named checks
covering each op, the local-concepts head, both losses, and two end-to-end
models; the command-line ``gradcheck`` subcommand prints its results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, model as model_mod, tensor as T
from .lca import lca_forward, pooling_matrix
from .rng import Rng
from .tensor import Tensor, backward, no_grad

OP_TOL = 1e-6  # single-op threshold
COMPOSITE_TOL = 1e-5  # multi-op compositions and end-to-end models
DEFAULT_EPS = 1e-5
N_SEEDS = 10


def grad_check(f, x, eps: float = DEFAULT_EPS) -> float:
    """Max relative error of tape gradients vs central finite differences.

    ``x`` is one leaf tensor or a sequence of leaf tensors; ``f`` receives
    them positionally and must return a scalar tensor. ``f`` may also close
    over the leaves (e.g. a model's parameters) and ignore its arguments —
    perturbation mutates the leaf buffers in place, so the closure sees it.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    leaves = [x] if isinstance(x, Tensor) else list(x)
    for leaf in leaves:
        leaf.requires_grad = True
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        leaf.grad[...] = 0

    loss = f(*leaves)
    backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    worst = 0.0
    for leaf, a in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            with no_grad():
                flat[i] = saved + eps
                plus = f(*leaves).item()
                flat[i] = saved - eps
                minus = f(*leaves).item()
            flat[i] = saved
            numeric = (plus - minus) / (2 * eps)
            rel = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, rel)
    return worst


@dataclass
class CheckResult:
    name: str
    max_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_rel) and self.max_rel < self.tol


def _t(rng: Rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform_array(shape, lo, hi, dtype=np.float64), requires_grad=True)


def _spread(rng: Rng, shape) -> Tensor:
    """Values with pairwise gaps well above 2*eps, for argmax/tie-free ops."""
    n = math.prod(shape)
    base = np.array(rng.permutation(n), dtype=np.float64) / n
    jitter = rng.uniform_array((n,), 0.0, 1.0 / (4 * n), dtype=np.float64)
    return Tensor((base + jitter).reshape(shape), requires_grad=True)


def _sq(t: Tensor) -> Tensor:
    return T.tensor_sum(T.mul(t, t))


def _probe(rng: Rng, shape) -> Tensor:
    """Fixed random linear functional so every output coordinate matters.

    Drawn once per check, outside the closure handed to grad_check — the
    closure must be deterministic across finite-difference probes.
    """
    return Tensor(rng.uniform_array(shape, -1.0, 1.0, dtype=np.float64))


# --- individual checks, each a function(rng) -> float --------------------


def _check_matmul(rng):
    a, b = _t(rng, (4, 3)), _t(rng, (3, 2))
    return grad_check(lambda a, b: _sq(T.matmul(a, b)), [a, b])


def _check_conv2d(rng):
    # Maps are [C, H, W, B]: 3 channels of 5x7 at batch 3.
    x, w, b = _t(rng, (3, 5, 7, 3)), _t(rng, (4, 3, 3, 3)), _t(rng, (4,))
    rel1 = grad_check(lambda x, w, b: _sq(T.conv2d(x, w, b, stride=1, pad=1)), [x, w, b])
    rel2 = grad_check(lambda x, w, b: _sq(T.conv2d(x, w, b, stride=2, pad=0)), [x, w, b])
    w23 = _t(rng, (4, 3, 2, 3))  # non-square kernel, strided and padded
    rel3 = grad_check(lambda x, w, b: _sq(T.conv2d(x, w, b, stride=2, pad=1)), [x, w23, b])
    return max(rel1, rel2, rel3)


def _check_avgpool(rng):
    x = _t(rng, (2, 4, 5, 2))
    rel1 = grad_check(lambda x: _sq(T.avgpool2d(x, 2, 3, stride=1)), x)
    rel2 = grad_check(lambda x: _sq(T.avgpool2d(x, 2, 2, stride=2)), x)
    return max(rel1, rel2)


def _check_maxpool(rng):
    x = _spread(rng, (2, 6, 6, 2))
    rel1 = grad_check(lambda x: _sq(T.maxpool2d(x, 2, stride=2)), x)
    rel2 = grad_check(lambda x: _sq(T.maxpool2d(x, 3, stride=1)), x)
    x7 = _spread(rng, (2, 7, 7, 2))  # ragged: the last row and column sit in no window
    rel3 = grad_check(lambda x: _sq(T.maxpool2d(x, 2, stride=2)), x7)
    return max(rel1, rel2, rel3)


def _check_relu(rng):
    raw = rng.uniform_array((3, 7), -1.0, 1.0, dtype=np.float64)
    x = Tensor(np.sign(raw) * (0.01 + np.abs(raw)), requires_grad=True)  # off the kink
    r = _probe(rng, x.shape)
    return grad_check(lambda x: T.tensor_sum(T.mul(T.relu(x), r)), x)


def _check_log_softmax(rng):
    x = _t(rng, (3, 5), -2.0, 2.0)
    r = _probe(rng, x.shape)
    return grad_check(lambda x: T.tensor_sum(T.mul(T.log_softmax(x), r)), x)


def _check_elementwise(rng):
    a, b = _t(rng, (3, 4)), _t(rng, (3, 4))

    def f(a, b):
        s = T.add(T.mul(a, b), T.scale(T.sub(a, b), 0.7))
        return T.sub(_sq(s), T.tensor_mean(T.mul(a, a)))

    return grad_check(f, [a, b])


def _check_bias_add(rng):
    x, b = _t(rng, (4, 3)), _t(rng, (3,))
    return grad_check(lambda x, b: _sq(T.add(x, b)), [x, b])


def _check_shape_ops(rng):
    x = _t(rng, (2, 3, 4))
    r = _probe(rng, (4, 6))

    def f(x):
        moved = T.transpose(x, (2, 0, 1))  # [4,2,3]
        return T.tensor_sum(T.mul(T.reshape(moved, (4, 6)), r))

    return grad_check(f, x)


def _check_reductions(rng):
    x = _t(rng, (3, 4))

    def f(x):
        return T.add(T.tensor_mean(T.tensor_sum(T.mul(x, x), axis=1)),
                     T.scale(T.tensor_mean(x), 0.3))

    return grad_check(f, x)


def _check_lca(rng):
    fm = _t(rng, (2, 3, 3, 4))
    fw, fb = _t(rng, (2, 3)), _t(rng, (2,))
    r = _probe(rng, (2, 2))

    def f(fm, fw, fb):
        return T.tensor_sum(T.mul(lca_forward(fm, fw, fb), r))

    return grad_check(f, [fm, fw, fb])


def _check_nll(rng):
    logits = _t(rng, (4, 5), -2.0, 2.0)
    targets = np.array([rng.randint(5) for _ in range(4)])
    return grad_check(lambda z: losses.nll_loss(T.log_softmax(z), targets), logits)


def _check_entropy(rng):
    logits = _t(rng, (4, 5), -2.0, 2.0)
    return grad_check(lambda z: losses.entropy(T.log_softmax(z)), logits)


def _check_max_entropy(rng):
    logits = _t(rng, (4, 5), -2.0, 2.0)
    targets = np.array([rng.randint(5) for _ in range(4)])
    return grad_check(lambda z: losses.max_entropy_loss(z, targets, 0.1), logits)


def _window_gap(y: np.ndarray, k: int) -> float:
    """Smallest gap from a window's max down to its runner-up.

    The windows are ``k`` wide at stride ``k`` on a [C, H, W, B] map, as
    the tiny backbone's pools read it; the rows and columns no window reads
    are trimmed first. Only windows whose max is > 0 count: the tiny
    backbone applies its relu after the pool, so a window whose max is <= 0
    is zeroed by that relu, whose |max| margin covers it.
    """
    c, h, w, n = y.shape
    oh, ow = h // k, w // k
    win = y[:, : k * oh, : k * ow].reshape(c, oh, k, ow, k, n).transpose(0, 1, 3, 5, 2, 4)
    top2 = np.sort(win.reshape(c, oh, ow, n, k * k), axis=-1)[..., -2:]
    live = top2[..., 1] > 0
    return float((top2[..., 1] - top2[..., 0])[live].min()) if live.any() else np.inf


def _kink_margin(m: model_mod.Model, x: Tensor) -> float:
    """Distance from the tiny_cnn model ``m``'s forward pass on ``x`` to its
    nearest kink.

    The tape keeps no relu or pool input, so this replays the backbone and
    the LCA head's pre-activations without one, from ``m``'s parameters,
    by the ops ``Model.forward`` runs and so with its bytes. For each relu
    the margin is min |pre|: the pooled maps' and the head's pooled
    embedding's. For each pool it is ``_window_gap`` of the conv output.
    """
    k = model_mod.POOL
    margin = np.inf
    with no_grad():
        y = T.transpose(x, (1, 2, 3, 0))
        for conv in ("conv1", "conv2"):
            y = T.conv2d(y, m.param(f"{conv}_weight"), m.param(f"{conv}_bias"), 1, 1)
            margin = min(margin, _window_gap(y.data, k))
            y = T.maxpool2d(y, k, k)
            margin = min(margin, float(np.abs(y.data).min()))
            y = T.relu(y)
        if m.arch.embed_dim is not None:
            c, h, w, b = y.shape
            fm = T.transpose(y, (3, 0, 1, 2))
            cells = T.reshape(T.transpose(fm, (2, 3, 0, 1)), (h * w * b, c))
            emb = T.add(T.matmul(cells, T.transpose(m.param("fc_weight"))), m.param("fc_bias"))
            pooled = pooling_matrix(h, w, emb.dtype) @ emb.data.reshape(h * w, -1)
            margin = min(margin, float(np.abs(pooled).min()))
    return margin


# Finite differences are only trusted where the model is differentiable:
# every relu input and every contested maxpool window must sit at least
# this far from a flip. Perturbing one coordinate by eps moves any
# pre-activation in these two-layer nets by at most a few tens of eps,
# so 100x eps leaves comfortable headroom.
_E2E_MARGIN = 100 * DEFAULT_EPS


def _e2e(rng, embed_dim, input_hw: int):
    arch = model_mod.Architecture("tiny_cnn", (2, 3), (input_hw, input_hw), embed_dim, 3)
    for _ in range(64):
        m = model_mod.build_model(arch, rng=rng.spawn(), dtype=np.float64)
        # Zero-initialised biases put dead receptive fields exactly on the
        # relu kink (pre-activation == bias == 0), where central differences
        # return the average of the two one-sided slopes no matter how small
        # eps is. The check may evaluate the gradient anywhere, so shove
        # every bias off zero before measuring margins.
        for p in m.parameters():
            if p.name.endswith("_bias"):
                mag = rng.uniform_array(p.data.shape, 0.05, 0.25, dtype=np.float64)
                sign = np.where(
                    rng.uniform_array(p.data.shape, 0.0, 1.0, dtype=np.float64) < 0.5,
                    -1.0,
                    1.0,
                )
                p.data[...] = mag * sign
        x = Tensor(rng.uniform_array((2, 3, input_hw, input_hw), 0.0, 1.0, dtype=np.float64))
        targets = np.array([rng.randint(3), rng.randint(3)])

        def f(*_params):
            return losses.max_entropy_loss(m.forward(x), targets, 0.1)

        if _kink_margin(m, x) > _E2E_MARGIN:
            return grad_check(f, m.parameters())
    raise RuntimeError("could not draw a kink-free end-to-end model in 64 tries")


def _check_e2e_gap(rng):
    return _e2e(rng, None, 4)


def _check_e2e_lca(rng):
    return _e2e(rng, 2, 8)


_CHECKS = [
    ("matmul", _check_matmul, OP_TOL),
    ("conv2d", _check_conv2d, OP_TOL),
    ("avgpool2d", _check_avgpool, OP_TOL),
    ("maxpool2d", _check_maxpool, OP_TOL),
    ("relu", _check_relu, OP_TOL),
    ("log_softmax", _check_log_softmax, OP_TOL),
    ("elementwise", _check_elementwise, OP_TOL),
    ("bias_add", _check_bias_add, OP_TOL),
    ("shape_ops", _check_shape_ops, OP_TOL),
    ("reductions", _check_reductions, OP_TOL),
    ("lca_layer", _check_lca, COMPOSITE_TOL),
    ("nll_loss", _check_nll, OP_TOL),
    ("entropy", _check_entropy, OP_TOL),
    ("max_entropy_loss", _check_max_entropy, OP_TOL),
    ("e2e_tiny_gap", _check_e2e_gap, COMPOSITE_TOL),
    ("e2e_tiny_lca", _check_e2e_lca, COMPOSITE_TOL),
]


def run_suite(seed: int = 0, n_seeds: int = N_SEEDS):
    """Run every named check over ``n_seeds`` seeds; returns CheckResults."""
    results = []
    for name, fn, tol in _CHECKS:
        worst = 0.0
        for k in range(n_seeds):
            rng = Rng(seed * 1_000_003 + k)
            worst = max(worst, fn(rng))
        results.append(CheckResult(name, worst, tol))
    return results
