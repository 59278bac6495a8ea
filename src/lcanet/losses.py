"""Classification objectives: negative log-likelihood, prediction entropy,
and their weighted combination.

The combined loss is NLL − λ·H. Minimizing it trades likelihood against
keeping the predictive distribution spread out; λ=0 recovers plain NLL.
Entropy is computed from log-probabilities for stability, with the 0·log 0
convention resolved to 0 so exact zeros in a hand-built distribution are
legal inputs.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor
from .tensor import _record  # intra-package: registering two bespoke adjoints


def nll_loss(logp: Tensor, targets) -> Tensor:
    """Mean over the batch of −logp[i, target_i]."""
    if logp.ndim != 2:
        raise ShapeError(f"nll_loss expects [B,K] log-probs, got {logp.shape}")
    b, k = logp.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (b,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {b}")
    if targets.min() < 0 or targets.max() >= k:
        raise IndexError(f"target out of range [0,{k}): {targets.min()}..{targets.max()}")

    rows = np.arange(b)
    out = -logp.data[rows, targets].mean()

    def grad_fn(g):
        gx = np.zeros_like(logp.data)
        gx[rows, targets] = -g / b
        return (gx,)

    return _record("nll", np.asarray(out, dtype=logp.dtype), (logp,), grad_fn)


def entropy(logp: Tensor) -> Tensor:
    """Mean over the batch of H = −Σ_k p_k·log p_k, with 0·log 0 := 0."""
    if logp.ndim != 2:
        raise ShapeError(f"entropy expects [B,K] log-probs, got {logp.shape}")
    b = logp.shape[0]
    p = np.exp(logp.data)
    # logp = -inf at p = 0 would make the discarded branch of np.where
    # evaluate 0 * inf; errstate keeps that expected case silent.
    with np.errstate(invalid="ignore"):
        plogp = np.where(p > 0, p * logp.data, 0.0)
    out = -plogp.sum(axis=1).mean()

    def grad_fn(g):
        # d(−p·logp)/dl = −e^l·(l + 1); the p=0 branch is constant 0.
        with np.errstate(invalid="ignore"):
            gx = np.where(p > 0, -p * (logp.data + 1.0), 0.0) * (g / b)
        return (gx.astype(logp.dtype, copy=False),)

    return _record("entropy", np.asarray(out, dtype=logp.dtype), (logp,), grad_fn)


def loss_terms(logits: Tensor, targets, lambda_entropy: float) -> tuple[Tensor, Tensor, Tensor]:
    """(NLL − λ·entropy, NLL, entropy), all over log_softmax(logits).

    λ must be finite and >= 0. With λ = 0 the loss is the NLL tensor itself;
    the entropy is still computed, for reporting, but does not feed the loss.
    """
    if not np.isfinite(lambda_entropy) or lambda_entropy < 0:
        raise ValueError(f"lambda_entropy must be finite and >= 0, got {lambda_entropy}")
    logp = T.log_softmax(logits)
    nll = nll_loss(logp, targets)
    ent = entropy(logp)
    if lambda_entropy == 0.0:
        return nll, nll, ent
    return T.sub(nll, T.scale(ent, lambda_entropy)), nll, ent


def max_entropy_loss(logits: Tensor, targets, lambda_entropy: float) -> Tensor:
    """NLL − λ·entropy, both taken over log_softmax(logits)."""
    return loss_terms(logits, targets, lambda_entropy)[0]
