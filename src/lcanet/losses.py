"""Classification objective: NLL − λ·entropy over log_softmax(logits).

Minimizing it trades likelihood against keeping the predictive
distribution spread out; λ=0 recovers plain NLL. The two terms are tape
ops of ``lcanet.tensor``, where every adjoint lives; ``nll_loss`` and
``entropy`` are re-exported here.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, entropy, nll_loss


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
