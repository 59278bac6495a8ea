"""Local-concepts accumulation head.

Given a feature map of shape [B, C, H, W], every rectangular pooling kernel
other than 1x1 is slid over the map at stride 1. Each window's mean is one
C-dimensional local-concept vector; all of them pass through one shared
linear embedding followed by ReLU, and the head's output is the arithmetic
mean of every embedded vector. The head's widths C and D are those of the
embedding weight [D, C]; ``LcaConfig`` holds only what no tensor records.

The window set is one cached pooling matrix A [P, H*W], shared by
``lca_forward`` and ``concept_vectors``. Each row of A sums to 1 and the
embedding is affine, so the head embeds the H*W cells first and pools in
embedding space: relu(A (X W^T + b)) equals relu(A X W^T + b).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .tensor import ShapeError, Tensor


class EmptyKernelError(ValueError):
    """A 1x1 feature map admits no pooling kernel larger than 1x1."""


@dataclass(frozen=True)
class LcaConfig:
    """The head's two free choices; its input width C is the backbone's."""

    embed_dim: int
    include_one_by_k: bool = True

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim ({self.embed_dim}) must be >= 1")


def enumerate_kernels(h: int, w: int, include_one_by_k: bool = True) -> list[tuple[int, int]]:
    """All pooling kernel sizes for an HxW map, kh-major, excluding 1x1."""
    if h < 1 or w < 1:
        raise ShapeError(f"feature map extent {h}x{w} is empty")
    if h * w < 2:
        raise EmptyKernelError("1x1 feature map has no kernels larger than 1x1")
    lo = 1 if include_one_by_k else 2
    kernels = [
        (kh, kw)
        for kh in range(lo, h + 1)
        for kw in range(lo, w + 1)
        if (kh, kw) != (1, 1)
    ]
    if not kernels:
        # Reachable when include_one_by_k=false on a single-row/column map.
        raise EmptyKernelError(f"no admissible kernels for a {h}x{w} map")
    return kernels


def concept_count(h: int, w: int, include_one_by_k: bool = True) -> int:
    """Total stride-1 window positions over all enumerated kernels."""
    total = 0
    for kh, kw in enumerate_kernels(h, w, include_one_by_k):
        total += (h - kh + 1) * (w - kw + 1)
    return total


@functools.lru_cache(maxsize=32)
def pooling_matrix(h: int, w: int, include_one_by_k: bool, dtype) -> np.ndarray:
    """Read-only [P, H*W] matrix; row p holds 1/area on window p's cells.

    Rows follow ``enumerate_kernels``, then window position row-major.
    """
    index = np.arange(h * w).reshape(h, w)
    blocks = []
    for kh, kw in enumerate_kernels(h, w, include_one_by_k):
        cells = sliding_window_view(index, (kh, kw)).reshape(-1, kh * kw)
        block = np.zeros((len(cells), h * w), dtype=dtype)
        np.put_along_axis(block, cells, 1.0 / (kh * kw), axis=1)
        blocks.append(block)
    a = np.concatenate(blocks)
    a.flags.writeable = False
    return a


def concept_vectors(featmap: np.ndarray, include_one_by_k: bool = True) -> np.ndarray:
    """Materialize every raw local-concept vector as an array [B, P, C].

    Same windows and ordering as lca_forward, no embedding. Intended for
    verification and demonstration, not training (it holds all P vectors
    at once).
    """
    b, c, h, w = featmap.shape
    a = pooling_matrix(h, w, include_one_by_k, np.result_type(featmap.dtype, np.float32))
    return a @ featmap.reshape(b, c, h * w).transpose(0, 2, 1)


def lca_forward(featmap: Tensor, fc_weight: Tensor, fc_bias: Tensor,
                include_one_by_k: bool = True) -> Tensor:
    """Embed every local-concept vector and average: [B,C,H,W] -> [B,D].

    ``fc_weight`` [D, C] and ``fc_bias`` [D] are the shared embedding; the
    head's widths are read from them.
    """
    if featmap.ndim != 4:
        raise ShapeError(f"lca_forward expects a 4-D feature map, got {featmap.shape}")
    b, c, h, w = featmap.shape
    d, wc = fc_weight.shape
    if c != wc:
        raise ShapeError(f"feature map has {c} channels, fc_weight takes {wc}")

    a = Tensor(pooling_matrix(h, w, include_one_by_k, featmap.dtype))  # constant [P, H*W]
    cells = T.reshape(T.transpose(featmap, (2, 3, 0, 1)), (h * w * b, c))
    emb = T.add(T.matmul(cells, T.transpose(fc_weight)), fc_bias)
    pooled = T.matmul(a, T.reshape(emb, (h * w, b * d)))  # [P, B*D]
    total = T.reshape(T.tensor_sum(T.relu(pooled), axis=0), (b, d))
    return T.scale(total, 1.0 / a.shape[0])
