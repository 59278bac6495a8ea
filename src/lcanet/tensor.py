"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a contiguous row-major numpy array of float32 or
float64. Every differentiable operation lives in this module: it computes
its result eagerly and, while gradients are enabled, records a tape node
holding the operation tag, one edge per input and a closure that maps the
output adjoint to input adjoints.

An edge is the input's node when a recorded operation produced the input,
else the input tensor itself: a leaf, such as a parameter, a batch or a
constant. A node never holds an input tensor that has a node, so the tape
keeps an activation only where an adjoint reads it: each adjoint closes
over the arrays it reads (an operand, a mask's source, columns, an
argmax), never over a ``Tensor``, and over nothing but shapes where it
reads no values. An activation no adjoint reads is freed in the forward,
as soon as its consumers are built and the caller lets it go.

The tape is implicit: nodes carry a global creation sequence number, and
``backward`` replays the nodes the loss reaches newest first, a valid
topological order because an operation can only consume tensors created
before it. Each such node runs once; leaf tensors marked ``requires_grad``
accumulate into their ``.grad`` buffer. The walk consumes the tape: a node
drops its edges and adjoint rule as soon as its rule has run, so each kept
array is freed after the adjoint that reads it, and a graph can be walked
only once.

Tensors are treated as immutable values once produced. Gradients are kept
as plain numpy arrays, never on the tape.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand dimensions do not satisfy an operation's contract."""


class ContractError(ValueError):
    """An operation was called outside its declared contract."""


class NumericsError(ArithmeticError):
    """A non-finite value appeared where the library guarantees finiteness."""


_seq = itertools.count()
_grad_enabled = True
_debug_checks = False


def set_debug_checks(on: bool) -> None:
    """Toggle NaN/Inf assertions on every produced tensor (off by default)."""
    global _debug_checks
    _debug_checks = bool(on)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / numeric probes)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Node:
    """One tape entry: operation tag, edges and the adjoint rule.

    ``parents`` holds one edge per input, in the op's argument order: the
    input's ``Node`` when a recorded op produced it, else the input tensor,
    a leaf. ``grad_fn`` maps the output adjoint to one adjoint (or ``None``)
    per edge, from arrays it closed over. The node holds no reference to
    its output and no produced tensor, so no tensor and node form a cycle
    and no activation lives on through an edge. ``backward`` consumes it:
    once ``grad_fn`` has run, ``parents`` is ``()`` and ``grad_fn`` is
    ``None``.
    """

    __slots__ = ("op", "parents", "grad_fn", "seq")

    def __init__(self, op, parents, grad_fn):
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn
        self.seq = next(_seq)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.type not in DTYPES:
            arr = arr.astype(np.float32)
        # note: not ascontiguousarray, which would promote 0-d scalars to 1-d
        self.data = np.asarray(arr, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.node = None

    # -- introspection ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


class Parameter(Tensor):
    """Named trainable leaf; ``grad`` accumulates until explicitly zeroed."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, dtype={self.dtype.name})"


# ---------------------------------------------------------------------------
# tape plumbing
# ---------------------------------------------------------------------------


def _taped(parents) -> bool:
    """Whether an op on ``parents`` records a tape node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(op: str, out: np.ndarray, parents, grad_fn) -> Tensor:
    if _debug_checks and not np.all(np.isfinite(out)):
        raise NumericsError(f"{op} produced non-finite values")
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(out, order="C")
    t.grad = None
    t.node = None
    t.requires_grad = False
    if _taped(parents):
        t.requires_grad = True
        t.node = Node(op, tuple(p if p.node is None else p.node for p in parents), grad_fn)
    return t


def _check_dtypes(op: str, *tensors: Tensor):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise TypeError(f"{op}: mixed dtypes {dt.name} and {t.dtype.name}")
    return dt


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    ``loss`` must be a scalar produced by a recorded operation. Gradients
    of leaves not reachable from ``loss`` are left untouched.

    A node waits in a max-heap on ``seq`` from its first adjoint
    contribution on, and the newest runs next. Its consumers are all newer,
    so its adjoint is complete when it runs; contributions arrive in
    descending consumer ``seq``, in parent order within one consumer.

    The walk consumes the tape it reaches: after a node's ``grad_fn`` has
    run, the node's ``parents`` become ``()`` and its ``grad_fn`` ``None``,
    so each activation is freed once the last adjoint that reads it is out.
    Nodes the loss does not reach keep theirs. Reaching a consumed node, as
    a second ``backward`` of the same loss or of a loss sharing a walked
    subgraph does, is a ``ContractError``; leaves may then hold the
    contributions of the nodes that ran before it.
    """
    if not isinstance(loss, Tensor) or loss.shape != ():
        shape = getattr(loss, "shape", None)
        raise ContractError(f"backward expects a scalar tensor, got shape {shape}")
    if loss.node is None:
        raise ContractError("backward on a tensor that no recorded operation produced")

    adjoint = {loss.node.seq: np.ones((), dtype=loss.dtype)}
    pending = [(-loss.node.seq, loss.node)]
    while pending:
        _, node = heapq.heappop(pending)
        if node.grad_fn is None:
            raise ContractError(f"backward reached a {node.op} node whose graph an earlier "
                                "backward consumed; each graph can be walked once")
        grads = node.grad_fn(adjoint.pop(node.seq))
        parents = node.parents
        node.parents, node.grad_fn = (), None
        for p, gp in zip(parents, grads):
            if gp is None:
                continue
            if isinstance(p, Node):
                if p.seq in adjoint:
                    adjoint[p.seq] = adjoint[p.seq] + gp
                else:
                    adjoint[p.seq] = gp
                    heapq.heappush(pending, (-p.seq, p))
            elif p.requires_grad:  # a leaf tensor
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                p.grad += gp.astype(p.dtype, copy=False)
        # The loop's own names would keep this node's inputs alive through
        # the next grad_fn call.
        parents = grads = p = gp = None


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a trailing-axis bias vector as ``b``."""
    _check_dtypes("add", a, b)
    if a.shape == b.shape:
        return _record("add", a.data + b.data, (a, b), lambda g: (g, g))
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        axes = tuple(range(a.ndim - 1))
        return _record("add", a.data + b.data, (a, b), lambda g: (g, g.sum(axis=axes)))
    raise ShapeError(f"add: shapes {a.shape} and {b.shape} are not compatible")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("sub", a, b)
    if a.shape == b.shape:
        return _record("sub", a.data - b.data, (a, b), lambda g: (g, -g))
    raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("mul", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return _record("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _record("scale", a.data * np.asarray(s, dtype=a.dtype), (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D [M,K] by a 2-D [K,N] tensor."""
    _check_dtypes("matmul", a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = a.data @ b.data
    # Keep only the operand a requested gradient reads.
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def grad_fn(g):
        ga = g @ bd.T if bd is not None else None
        gb = ad.T @ g if ad is not None else None
        return ga, gb

    return _record("matmul", out, (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _record("relu", np.fmax(xd, 0), (x,), lambda g: (g * (xd > 0),))


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-probabilities of a [B,K] logit matrix, max-shifted."""
    if x.ndim != 2:
        raise ShapeError(f"log_softmax expects a 2-D tensor, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse

    def grad_fn(g):
        return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)

    return _record("log_softmax", out, (x,), grad_fn)


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
    shape, dtype = logp.shape, logp.dtype

    def grad_fn(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[rows, targets] = -g / b
        return (gx,)

    return _record("nll", np.asarray(out, dtype=logp.dtype), (logp,), grad_fn)


def entropy(logp: Tensor) -> Tensor:
    """Mean over the batch of H = −Σ_k p_k·log p_k, with 0·log 0 := 0."""
    if logp.ndim != 2:
        raise ShapeError(f"entropy expects [B,K] log-probs, got {logp.shape}")
    b = logp.shape[0]
    lp = logp.data
    p = np.exp(lp)
    # logp = -inf at p = 0 would make the discarded branch of np.where
    # evaluate 0 * inf; errstate keeps that expected case silent.
    with np.errstate(invalid="ignore"):
        plogp = np.where(p > 0, p * lp, 0.0)
    out = -plogp.sum(axis=1).mean()

    def grad_fn(g):
        # d(−p·logp)/dl = −e^l·(l + 1); the p=0 branch is constant 0.
        with np.errstate(invalid="ignore"):
            gx = np.where(p > 0, -p * (lp + 1.0), 0.0) * (g / b)
        return (gx.astype(lp.dtype, copy=False),)

    return _record("entropy", np.asarray(out, dtype=logp.dtype), (logp,), grad_fn)


# ---------------------------------------------------------------------------
# spatial operations (batch-innermost [C, H, W, B] maps)
# ---------------------------------------------------------------------------


def _offset_slices(hout: int, wout: int, i: int, j: int, stride: int):
    """Index of the cells at offset (i, j) of each window of a [C, H, W, B] map.

    Its rows are runs of B contiguous values, W'·B of them at stride 1.
    """
    span_h, span_w = stride * (hout - 1) + 1, stride * (wout - 1) + 1
    return (slice(None), slice(i, i + span_h, stride), slice(j, j + span_w, stride))


def _conv_columns(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
                  hout: int, wout: int) -> np.ndarray:
    """The im2col columns [Cin·kh·kw, B, H'·W'] of a [Cin, H, W, B] map.

    The map is copied once to [Cin, B, H, W] planes, and each kernel
    offset's columns are read from them.
    """
    cin, h, wdt, bsz = x.shape
    hw = hout * wout
    if stride == 1 and (hout, wout) == (h, wdt):
        # A "same" convolution: the columns of offset (i, j) are each plane
        # read flat from i·W + j on, in a zero margin, then zeroed where a
        # row wraps around.
        last = (kh - 1) * wdt + kw - 1  # where the last offset's run starts
        flat = np.zeros((cin, bsz, last + hw), dtype=x.dtype)
        start = pad * wdt + pad
        flat[:, :, start : start + hw].reshape(cin, bsz, h, wdt)[...] = x.transpose(0, 3, 1, 2)
        win = sliding_window_view(flat, hw, axis=2)  # [Cin, B, starts, H·W]
        cols = np.empty((cin, kh, kw, bsz, hw), dtype=x.dtype)
        for i in range(kh):
            cols[:, i] = win[:, :, i * wdt : i * wdt + kw].transpose(0, 2, 1, 3)
        cells = cols.reshape(cin, kh, kw, bsz, hout, wout)
        for j in range(kw):
            cells[:, :, j, ..., : max(pad - j, 0)] = 0
            cells[:, :, j, ..., wdt + pad - j :] = 0
    else:
        xp = np.zeros((cin, bsz, h + 2 * pad, wdt + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + wdt] = x.transpose(0, 3, 1, 2)
        win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        cols = np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3))
    return cols.reshape(cin * kh * kw, bsz, hw)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation of a [Cin,H,W,B] map by [Cout,Cin,kh,kw] plus bias.

    Returns [Cout,H',W',B]. Each sample's im2col columns are a matrix of
    their own, so the forward is one matrix product per sample, as on NCHW
    batches, and a sample's output bits do not depend on its batch. The
    columns are kept for the weight gradient, one matrix product over
    (b, h', w'), and only while that gradient is taped; the adjoint drops
    them once it has that gradient, before the input gradient's columns
    exist. The input gradient is a col2im sum: one matrix product and one
    slice-add per kernel offset.
    """
    _check_dtypes("conv2d", x, w, b)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: input {x.shape} and kernel {w.shape} must be 4-D")
    cin, h, wdt, bsz = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(
            f"conv2d: input {x.shape} has {cin} channels on axis 0, kernel {w.shape} "
            f"wants {cin_w}; the input must be a [C, H, W, B] map"
        )
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({cout},)")
    if stride < 1 or pad < 0:
        raise ContractError(f"conv2d: stride {stride} must be >= 1 and pad {pad} >= 0")
    hp, wp = h + 2 * pad, wdt + 2 * pad
    if hp < kh or wp < kw:
        raise ShapeError(f"conv2d: kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")

    hout, wout = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    hw = hout * wout
    offsets = list(itertools.product(range(kh), range(kw)))
    cols = _conv_columns(x.data, kh, kw, stride, pad, hout, wout)
    wmat = w.data.reshape(cout, -1)
    # One product per sample: a column of one product over the whole batch
    # may round differently with the batch's size. The output is allocated
    # before the products, whose buffer then leaves a hole the later
    # allocations of a step reuse: about 1 MB less peak RSS when training.
    out = np.empty((cout, hw, bsz), dtype=x.dtype)
    prod = wmat @ cols.transpose(1, 0, 2)  # [B, Cout, H'·W']
    np.add(prod.transpose(1, 2, 0), b.data[:, None, None], out=out)
    del prod
    out = out.reshape(cout, hout, wout, bsz)
    cols = cols.reshape(cin * kh * kw, -1) if _taped((w,)) else None
    x_grad, b_grad = x.requires_grad, b.requires_grad

    def grad_fn(g):
        nonlocal cols
        gb = gw = gx = None
        if b_grad or cols is not None:
            # The upstream gradient in (b, h', w') order, the columns' order.
            gt = np.ascontiguousarray(g.reshape(cout, hw, bsz).transpose(0, 2, 1))
            if b_grad:
                # A pairwise sum over each sample's (h', w'), then the samples
                # in order, as numpy reduces an NCHW gradient.
                gb = np.ascontiguousarray(gt.sum(axis=2).T).sum(axis=0)
            if cols is not None:
                gw = (cols @ gt.reshape(cout, -1).T).T.reshape(cout, cin, kh, kw)
            # The tape runs each adjoint once, so the columns can go before
            # the input gradient's are allocated.
            del gt
            cols = None
        g = g.reshape(cout, -1)
        if x_grad:
            # col2im: every cell sums its terms in kernel-offset order.
            gcols = (wmat.T @ g).reshape(cin, kh, kw, hout, wout, bsz)
            gxp = np.zeros((cin, hp, wp, bsz), dtype=g.dtype)
            for i, j in offsets:
                gxp[_offset_slices(hout, wout, i, j, stride)] += gcols[:, i, j]
            gx = gxp[:, pad : pad + h, pad : pad + wdt]
        return gx, gw, gb

    return _record("conv2d", out, (x, w, b), grad_fn)


def avgpool2d(x: Tensor, kh: int, kw: int, stride: int = 1) -> Tensor:
    """Mean over each kh x kw window of a [C,H,W,B] map, no padding, count
    includes every cell."""
    if x.ndim != 4:
        raise ShapeError(f"avgpool2d expects a 4-D [C, H, W, B] map, got shape {x.shape}")
    _, h, w, _ = x.shape
    if not (1 <= kh <= h and 1 <= kw <= w):
        raise ShapeError(f"avgpool2d: kernel ({kh}x{kw}) exceeds input extent ({h}x{w})")
    if stride < 1:
        raise ContractError(f"avgpool2d: stride {stride} must be >= 1")
    if kh == 1 and kw == 1 and stride == 1:
        # Identity map, bit-exact by construction.
        return _record("avgpool2d", x.data.copy(), (x,), lambda g: (g,))

    win = sliding_window_view(x.data, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    # One contiguous row per window: the mean sums it as a mean over the
    # whole map's H·W cells does.
    out = np.ascontiguousarray(win).reshape(*win.shape[:4], kh * kw).mean(axis=-1)
    hout, wout = out.shape[1], out.shape[2]
    shape, dtype = x.shape, x.dtype

    def grad_fn(g):
        gx = np.zeros(shape, dtype=dtype)
        share = g / np.asarray(kh * kw, dtype=g.dtype)
        for i, j in itertools.product(range(kh), range(kw)):
            gx[_offset_slices(hout, wout, i, j, stride)] += share
        return (gx,)

    return _record("avgpool2d", out, (x,), grad_fn)


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Windowed max over a [C,H,W,B] map; gradient routes to the first
    argmax in row-major order.

    Each of the k*k window offsets is read as a strided view of the input.
    Without a tape (``no_grad`` or an input that needs no gradient) only the
    running max is computed, no argmax.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects a 4-D [C, H, W, B] map, got shape {x.shape}")
    _, h, w, _ = x.shape
    if not 1 <= k <= min(h, w):
        raise ShapeError(f"maxpool2d: kernel {k} exceeds input extent ({h}x{w})")
    if stride < 1:
        raise ContractError(f"maxpool2d: stride {stride} must be >= 1")

    hout, wout = (h - k) // stride + 1, (w - k) // stride + 1
    offsets = itertools.product(range(k), repeat=2)  # row-major in the window
    slices = [_offset_slices(hout, wout, i, j, stride) for i, j in offsets]
    # Running max: the strict > keeps the first offset on ties, np.maximum keeps NaN.
    out = x.data[slices[0]].copy()
    taped = _taped((x,))
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1)) if taped else None
    for idx, sl in enumerate(slices[1:], 1):
        plane = x.data[sl]
        if taped:
            # Offsets rise, so the max keeps the last offset that beat the running max.
            np.maximum(arg, (plane > out) * arg.dtype.type(idx), out=arg)
        np.maximum(out, plane, out=out)
    shape, dtype = x.shape, x.dtype

    def grad_fn(g):
        gx = np.zeros(shape, dtype=dtype)
        if stride == k:
            # Each cell is written at most once; adding +0 afterwards turns a
            # -0.0 into +0.0, as accumulating into the zeros would.
            for idx, sl in enumerate(slices):
                np.multiply(g, arg == idx, out=gx[sl])
            gx += 0
        else:
            for idx, sl in enumerate(slices):
                gx[sl] += g * (arg == idx)
        return (gx,)

    return _record("maxpool2d", out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# shape and reduction operations
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    """The same values in ``shape``; every dim is given, none is negative."""
    shape = tuple(int(s) for s in shape)
    # math.prod is exact: a product of dims cannot wrap around to x.size.
    if min(shape, default=0) < 0 or math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    xshape = x.shape
    return _record("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(xshape),))


def transpose(x: Tensor, axes=None) -> Tensor:
    axes = tuple(range(x.ndim))[::-1] if axes is None else tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {x.shape}")
    inverse = tuple(axes.index(i) for i in range(x.ndim))
    return _record(
        "transpose",
        np.transpose(x.data, axes),
        (x,),
        lambda g: (np.transpose(g, inverse),),
    )


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    shape = x.shape

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record("sum", x.data.sum(axis=axis), (x,), grad_fn)


def tensor_mean(x: Tensor, axis=None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    shape, dtype = x.shape, x.dtype

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / np.asarray(n, dtype=dtype), shape).astype(dtype),)

    return _record("mean", x.data.mean(axis=axis), (x,), grad_fn)
