"""SGD with classical (heavy-ball) momentum.

Update rule, per parameter: v <- mu*v + g, then theta <- theta - lr*v.
No dampening, no Nesterov lookahead. Weight decay, when nonzero, is applied
as decoupled decay after the momentum step rather than folded into the
gradient. Gradients are zeroed once consumed.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ContractError, Parameter


class SGD:
    def __init__(self, params, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        params = list(params)
        if not 0 < lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {lr}")
        if not 0 <= weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {weight_decay}")
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0,1), got {momentum}")
        names = [p.name for p in params if isinstance(p, Parameter)]
        if len(names) != len(params) or len(set(names)) != len(names):
            raise ContractError("params must be uniquely named Parameters")
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {p.name: np.zeros_like(p.data) for p in params}

    def step(self) -> None:
        """Apply one momentum update from the accumulated grads, then zero them."""
        mu, lr, wd = self.momentum, self.lr, self.weight_decay
        for p in self.params:
            v = self.velocity[p.name]
            if v.shape != p.data.shape:
                raise ContractError(
                    f"velocity shape {v.shape} != param {p.name} shape {p.data.shape}"
                )
            v *= mu
            v += p.grad
            p.data -= np.asarray(lr, dtype=p.dtype) * v
            if wd:
                p.data -= np.asarray(lr * wd, dtype=p.dtype) * p.data
            p.grad[...] = 0
