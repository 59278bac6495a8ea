"""Forward values and adjoint rules of every tensor operation.

Expected values here are either computable in one's head (identity kernels,
2x2 means) or produced by an independent numpy expression inside the test.
Gradient correctness at scale lives in test_gradcheck; this file checks the
hand-sized cases and the error contracts.
"""

import weakref

import numpy as np
import pytest

import lcanet.tensor as T
from lcanet import Architecture, Rng, build_model
from lcanet.losses import loss_terms
from lcanet.tensor import ContractError, NumericsError, Parameter, ShapeError, Tensor


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    out = T.matmul(t64([[1, 0], [0, 1]]), t64([[5, 6], [7, 8]]))
    np.testing.assert_array_equal(out.data, [[5, 6], [7, 8]])


def test_matmul_dot():
    out = T.matmul(t64([[1, 2]]), t64([[3], [4]]))
    np.testing.assert_array_equal(out.data, [[11]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_adjoints():
    a = t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = t64([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    T.backward(T.tensor_sum(T.matmul(a, b)))
    # dA = g @ B^T and dB = A^T @ g with g = ones
    g = np.ones((2, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


# ---------------------------------------------------------------------------
# conv2d
#
# The spatial ops take and return batch-innermost [C, H, W, B] maps. The
# oracles below stay NCHW loops; ``chwb`` and ``nchw`` move the batch axis.
# ---------------------------------------------------------------------------


def chwb(a):
    """An NCHW array as the [C, H, W, B] map the spatial ops take."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def nchw(a):
    """A [C, H, W, B] map back in NCHW order."""
    return np.moveaxis(a, -1, 0)


def test_conv2d_all_ones_sums_window():
    x = t64(np.ones((1, 3, 3, 1)))
    w = t64(np.ones((1, 1, 3, 3)))
    b = t64(np.zeros(1))
    out = T.conv2d(x, w, b, stride=1, pad=0)
    np.testing.assert_array_equal(out.data.reshape(1, 1), [[9.0]])


def test_conv2d_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = t64(chwb(rng.uniform(size=(2, 1, 5, 5))))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0  # centre tap only
    out = T.conv2d(x, t64(w), t64(np.zeros(1)), stride=1, pad=1)
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_output_shape_formula():
    x = t64(np.zeros((3, 7, 9, 2)))
    w = t64(np.zeros((4, 3, 3, 3)))
    out = T.conv2d(x, w, t64(np.zeros(4)), stride=2, pad=1)
    assert out.shape == (4, 4, 5, 2)  # floor((7+2-3)/2)+1, floor((9+2-3)/2)+1


def test_conv2d_kernel_too_large():
    x = t64(np.zeros((1, 2, 2, 1)))
    w = t64(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        T.conv2d(x, w, t64(np.zeros(1)), stride=1, pad=0)


def test_conv2d_nchw_input_names_the_map_layout():
    """An NCHW batch whose channel axis is not first is refused, and the
    message says which layout the op takes."""
    x = t64(np.zeros((8, 3, 16, 16)))  # B=8 NCHW: axis 0 is the batch
    w = t64(np.zeros((16, 3, 3, 3)))
    with pytest.raises(ShapeError, match=r"\[C, H, W, B\]"):
        T.conv2d(x, w, t64(np.zeros(16)), stride=1, pad=1)


def test_conv2d_keeps_its_columns_only_for_a_taped_weight_gradient():
    """The [Cin·kh·kw, H'·W'·B] columns outlive the forward only while the
    weight gradient is taped: not for a frozen kernel, not under no_grad."""
    rng = np.random.default_rng(3)
    x = t64(rng.uniform(-1, 1, (3, 6, 5, 4)), requires_grad=True)
    n_cols = 3 * 3 * 3 * 6 * 5 * 4

    def held_columns(out):
        cells = out.node.grad_fn.__closure__ if out.node else ()
        return [c.cell_contents for c in cells
                if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.size == n_cols]

    for w_grad in (True, False):
        w = t64(rng.uniform(-1, 1, (2, 3, 3, 3)), requires_grad=w_grad)
        out = T.conv2d(x, w, t64(np.zeros(2)), stride=1, pad=1)
        assert len(held_columns(out)) == w_grad
    with T.no_grad():
        out = T.conv2d(x, t64(np.ones((2, 3, 3, 3)), requires_grad=True), t64(np.zeros(2)), 1, 1)
    assert out.node is None


def test_conv2d_matches_direct_loop():
    """Independent triple-loop cross-correlation oracle."""
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(2, 3, 5, 4))
    w = rng.uniform(-1, 1, size=(4, 3, 2, 3))
    b = rng.uniform(-1, 1, size=4)
    out = nchw(T.conv2d(t64(chwb(x)), t64(w), t64(b), stride=1, pad=0).data)

    ref = np.zeros_like(out)
    for n in range(2):
        for o in range(4):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    ref[n, o, i, j] = (
                        x[n, :, i : i + 2, j : j + 3] * w[o]
                    ).sum() + b[o]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def _conv_direct(x, w, b, stride, pad):
    """Loop-over-outputs NCHW cross-correlation."""
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hout, wout = (xp.shape[2] - kh) // stride + 1, (xp.shape[3] - kw) // stride + 1
    out = np.empty((x.shape[0], w.shape[0], hout, wout))
    for n, o, i, j in np.ndindex(*out.shape):
        cell = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
        out[n, o, i, j] = (cell * w[o]).sum() + b[o]
    return out


def _conv_adjoints_direct(x, w, g, stride, pad):
    """Loop-over-outputs adjoints of NCHW cross-correlation for upstream ``g``."""
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for n, o, i, j in np.ndindex(*g.shape):
        rows = slice(i * stride, i * stride + kh)
        cols = slice(j * stride, j * stride + kw)
        gw[o] += g[n, o, i, j] * xp[n, :, rows, cols]
        gxp[n, :, rows, cols] += g[n, o, i, j] * w[o]
    gx = gxp[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]]
    return gx, gw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize(
    "xshape, wshape, stride, pad, x_grad",
    [
        ((2, 3, 6, 7), (5, 3, 2, 3), 1, 0, True),
        ((2, 3, 7, 6), (4, 3, 2, 3), 2, 1, True),
        ((3, 2, 5, 5), (4, 2, 3, 3), 1, 1, False),  # a first layer: the input needs no gradient
    ],
)
def test_conv2d_adjoints_match_direct_loop(xshape, wshape, stride, pad, x_grad):
    rng = np.random.default_rng(7)
    x_nchw = rng.uniform(-1, 1, size=xshape)
    x = t64(chwb(x_nchw), requires_grad=x_grad)
    w = t64(rng.uniform(-1, 1, size=wshape), requires_grad=True)
    b = t64(rng.uniform(-1, 1, size=wshape[0]), requires_grad=True)
    out = T.conv2d(x, w, b, stride=stride, pad=pad)
    g = rng.uniform(-1, 1, size=out.shape)
    # Before backward, which consumes the node's grad_fn.
    x_adjoint = out.node.grad_fn(g)[0]
    T.backward(T.tensor_sum(T.mul(out, t64(g))))

    gx, gw, gb = _conv_adjoints_direct(x_nchw, w.data, nchw(g), stride, pad)
    if x_grad:
        np.testing.assert_allclose(nchw(x.grad), gx, rtol=0, atol=1e-12)
    else:
        assert x_adjoint is None and x.grad is None
    np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)


def _conv2d_nchw_col2im(x, w, b, g, stride, pad):
    """conv2d as it was written on NCHW batches: np.pad, one im2col GEMM per
    sample, einsum weight gradient, and a col2im over NCHW rows."""
    bsz, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    hout, wout = win.shape[2:4]
    wmat = w.reshape(cout, cin * kh * kw)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(bsz, cin * kh * kw, -1)
    out = (wmat @ cols).reshape(bsz, cout, hout, wout)
    out += b[None, :, None, None]
    gb = g.sum(axis=(0, 2, 3))
    gw = np.einsum("bohw,bchwij->ocij", g, win, optimize=True)
    gcols = (wmat.T @ g.reshape(bsz, cout, -1)).reshape(bsz, cin, kh, kw, hout, wout)
    gxp = np.zeros_like(xp)
    span_h, span_w = stride * (hout - 1) + 1, stride * (wout - 1) + 1
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + span_h : stride, j : j + span_w : stride] += gcols[:, :, i, j]
    gx = gxp[:, :, pad : pad + h, pad : pad + wdt] if pad else gxp
    return out, gx, gw, gb


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "xshape, wshape, stride, pad",
    [
        ((32, 3, 16, 16), (16, 3, 3, 3), 1, 1),  # tiny_cnn conv1 at batch 32
        ((32, 16, 8, 8), (32, 16, 3, 3), 1, 1),  # tiny_cnn conv2
        ((1, 4, 7, 9), (5, 4, 2, 3), 2, 1),
        ((5, 3, 6, 5), (4, 3, 3, 3), 2, 0),
        ((3, 8, 5, 7), (6, 8, 3, 3), 1, 1),
        ((7, 2, 9, 4), (3, 2, 1, 2), 1, 2),
        ((3, 2, 2, 3), (4, 2, 5, 5), 1, 2),  # "same", the kernel wider than the map
        ((2, 3, 1, 6), (2, 3, 3, 3), 1, 1),  # "same" on a single row
        ((4, 5, 3, 4), (3, 5, 1, 1), 1, 0),  # "same" 1x1
    ],
)
def test_conv2d_bytes_match_nchw_col2im_reference(xshape, wshape, stride, pad, dtype):
    """Every output has the NCHW version's bytes: the forward is one product
    per sample, the input gradient's col2im sums each cell's products in
    the same kernel-offset order, and the bias gradient sums as numpy
    reduces the NCHW gradient. The weight gradient is one product over
    (b, h', w'), the order einsum took; in float64 einsum takes another
    path and the two agree to rounding."""
    rng = np.random.default_rng(sum(xshape) + sum(wshape) + stride + pad)
    x = rng.uniform(-1, 1, size=xshape).astype(dtype)
    w = rng.uniform(-1, 1, size=wshape).astype(dtype)
    b = rng.uniform(-1, 1, size=wshape[0]).astype(dtype)
    out = T.conv2d(Tensor(chwb(x), requires_grad=True), Tensor(w, requires_grad=True),
                   Tensor(b, requires_grad=True), stride=stride, pad=pad)
    g = rng.uniform(-1, 1, size=nchw(out.data).shape).astype(dtype)
    gx, gw, gb = out.node.grad_fn(chwb(g))
    ref_out, ref_gx, ref_gw, ref_gb = _conv2d_nchw_col2im(x, w, b, g, stride, pad)

    assert gx.dtype == gw.dtype == gb.dtype == out.dtype == dtype
    assert out.data.tobytes() == chwb(ref_out).tobytes()
    assert chwb(nchw(gx)).tobytes() == chwb(ref_gx).tobytes()
    assert gb.tobytes() == ref_gb.tobytes()
    if dtype == np.float32:
        assert gw.tobytes() == ref_gw.tobytes()
    else:
        np.testing.assert_allclose(gw, ref_gw, rtol=1e-13, atol=1e-13 * np.abs(ref_gw).max())


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_avgpool_mean_of_four():
    x = t64(chwb(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    out = T.avgpool2d(x, 2, 2, stride=1)
    np.testing.assert_array_equal(out.data.reshape(1), [2.5])


def test_avgpool_row_kernel():
    x = t64(chwb(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    out = T.avgpool2d(x, 1, 2, stride=1)
    np.testing.assert_array_equal(out.data.reshape(2, 1), [[1.5], [3.5]])


def test_avgpool_1x1_identity_is_bit_exact():
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(size=(3, 4, 5, 2)).astype(np.float32))
    out = T.avgpool2d(x, 1, 1, stride=1)
    assert out.data.tobytes() == x.data.tobytes()


def test_avgpool_adjoint_spreads_uniformly():
    x = t64(np.arange(16.0).reshape(1, 4, 4, 1), requires_grad=True)
    T.backward(T.tensor_sum(T.avgpool2d(x, 2, 2, stride=2)))
    np.testing.assert_allclose(x.grad, np.full((1, 4, 4, 1), 0.25))


def test_avgpool_kernel_exceeds_input():
    with pytest.raises(ShapeError):
        T.avgpool2d(t64(np.zeros((1, 2, 2, 1))), 3, 1, stride=1)


def test_maxpool_basic():
    x = t64(chwb(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    out = T.maxpool2d(x, 2, stride=2)
    np.testing.assert_array_equal(out.data.reshape(1), [4.0])


def test_maxpool_tie_break_first_index():
    x = t64(np.ones((1, 2, 2, 1)), requires_grad=True)
    out = T.maxpool2d(x, 2, stride=2)
    np.testing.assert_array_equal(out.data.reshape(1), [1.0])
    T.backward(T.tensor_sum(out))
    # whole gradient lands on the first window position, row-major
    np.testing.assert_array_equal(x.grad.reshape(2, 2), [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_overlapping_windows_accumulate():
    x = t64(chwb(np.array([[[[9.0, 1.0], [2.0, 3.0]]]])), requires_grad=True)
    T.backward(T.tensor_sum(T.maxpool2d(x, 1, stride=1)))
    np.testing.assert_array_equal(x.grad, np.ones((1, 2, 2, 1)))


def _maxpool_direct(x, g, k, stride):
    """Per-window first argmax in row-major order, and its gradient routing."""
    n, c, h, w = x.shape
    out = np.empty((n, c, (h - k) // stride + 1, (w - k) // stride + 1), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b, ch, i, j in np.ndindex(*out.shape):
        win = x[b, ch, i * stride : i * stride + k, j * stride : j * stride + k]
        best = (0, 0)
        for p, q in np.ndindex(k, k):
            if win[p, q] > win[best]:
                best = (p, q)
        out[b, ch, i, j] = win[best]
        gx[b, ch, i * stride + best[0], j * stride + best[1]] += g[b, ch, i, j]
    return out, gx


def _avgpool_direct(x, g, kh, kw, stride):
    """Per-window mean, and the adjoint spreading g/(kh*kw) over each window."""
    n, c, h, w = x.shape
    out = np.empty((n, c, (h - kh) // stride + 1, (w - kw) // stride + 1), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b, ch, i, j in np.ndindex(*out.shape):
        rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
        out[b, ch, i, j] = x[b, ch, rows, cols].mean()
        gx[b, ch, rows, cols] += g[b, ch, i, j] / (kh * kw)
    return out, gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, stride", [(2, 2), (3, 1), (2, 1), (3, 2)])
def test_maxpool_matches_first_argmax_reference(k, stride, dtype):
    rng = np.random.default_rng(k * 10 + stride)
    # Half-steps in [-2, 2], relu'd: zeros and repeated values tie often.
    # On the odd 7x5 extent, k=2 stride 2 leaves the last row and column out.
    raw = rng.integers(-4, 5, size=(2, 3, 7, 5)) / 2
    x_nchw = np.where(raw > 0, raw, 0).astype(dtype)
    x = Tensor(chwb(x_nchw), requires_grad=True)
    out = T.maxpool2d(x, k, stride=stride)
    # Integer upstream gradients keep every accumulation order exact.
    g = rng.integers(-3, 4, size=nchw(out.data).shape).astype(dtype)
    T.backward(T.tensor_sum(T.mul(out, Tensor(chwb(g)))))

    ref_out, ref_gx = _maxpool_direct(x_nchw, g, k, stride)
    assert out.dtype == dtype and x.grad.dtype == dtype
    np.testing.assert_array_equal(nchw(out.data), ref_out)
    np.testing.assert_array_equal(nchw(x.grad), ref_gx)


def test_spatial_ops_match_nchw_loops_on_random_shapes():
    """Seeded random shapes: conv2d at strides 1-2, pads 0-2 and non-square
    kernels, and both pools on ragged extents, against the NCHW loops after
    moving the batch axis; forward and every adjoint."""
    gen = np.random.default_rng(19)
    for case in range(60):
        bsz, cin, cout = (int(v) for v in gen.integers(1, 5, 3))
        stride, pad = int(gen.integers(1, 3)), int(gen.integers(0, 3))
        kh, kw = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        h = int(gen.integers(max(1, kh - 2 * pad), 9))
        w = int(gen.integers(max(1, kw - 2 * pad), 9))
        x_nchw = gen.uniform(-1, 1, (bsz, cin, h, w))
        x = t64(chwb(x_nchw), requires_grad=True)
        k = t64(gen.uniform(-1, 1, (cout, cin, kh, kw)), requires_grad=True)
        bias = t64(gen.uniform(-1, 1, cout), requires_grad=True)
        out = T.conv2d(x, k, bias, stride, pad)
        g = gen.uniform(-1, 1, nchw(out.data).shape)
        T.backward(T.tensor_sum(T.mul(out, t64(chwb(g)))))
        np.testing.assert_allclose(nchw(out.data), _conv_direct(x_nchw, k.data, bias.data,
                                                                stride, pad), atol=1e-12)
        for got, want in zip((nchw(x.grad), k.grad, bias.grad),
                             _conv_adjoints_direct(x_nchw, k.data, g, stride, pad)):
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"conv case {case}")

        pk = int(gen.integers(1, min(h, w, 3) + 1))
        pstride = int(gen.integers(1, 3))
        x = t64(chwb(x_nchw), requires_grad=True)
        out = T.maxpool2d(x, pk, pstride)
        g = gen.uniform(-1, 1, nchw(out.data).shape)
        T.backward(T.tensor_sum(T.mul(out, t64(chwb(g)))))
        ref_out, ref_gx = _maxpool_direct(x_nchw, g, pk, pstride)
        np.testing.assert_array_equal(nchw(out.data), ref_out)
        # Overlapping windows sum a cell's shares in another order than the loop.
        np.testing.assert_allclose(nchw(x.grad), ref_gx, atol=1e-12)

        ah, aw = int(gen.integers(1, h + 1)), int(gen.integers(1, w + 1))
        x = t64(chwb(x_nchw), requires_grad=True)
        out = T.avgpool2d(x, ah, aw, pstride)
        g = gen.uniform(-1, 1, nchw(out.data).shape)
        T.backward(T.tensor_sum(T.mul(out, t64(chwb(g)))))
        ref_out, ref_gx = _avgpool_direct(x_nchw, g, ah, aw, pstride)
        np.testing.assert_allclose(nchw(out.data), ref_out, atol=1e-12)
        np.testing.assert_allclose(nchw(x.grad), ref_gx, atol=1e-12)


def _maxpool_masked_argmax(x, g, k, stride):
    """maxpool2d as it was written before the branch-free argmax, on NCHW
    batches: a running max whose argmax is updated through a boolean mask."""
    h, w = x.shape[2:]
    hout, wout = (h - k) // stride + 1, (w - k) // stride + 1
    span_h, span_w = stride * (hout - 1) + 1, stride * (wout - 1) + 1
    slices = [(..., slice(i, i + span_h, stride), slice(j, j + span_w, stride))
              for i in range(k) for j in range(k)]
    out = x[slices[0]].copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
    for idx, sl in enumerate(slices[1:], 1):
        arg[x[sl] > out] = idx
        np.maximum(out, x[sl], out=out)
    gx = np.zeros_like(x)
    for idx, sl in enumerate(slices):
        gx[sl] += g * (arg == idx)
    return out, gx


# Shapes below are NCHW; each test moves the batch axis innermost.
_MASKED_REF_CASES = [
    ((32, 16, 16, 16), 2, 2),  # the two tiny_cnn maps at batch 32
    ((32, 32, 8, 8), 2, 2),
    ((2, 3, 7, 5), 3, 1),
    ((2, 2, 17, 18), 17, 1),  # k*k - 1 = 288: a uint16 argmax
]
# Odd extents, where disjoint windows leave the last row or column out, and
# overlapping windows at stride 1 and 2.
_ODD_CASES = [
    ((2, 3, 7, 5), 2, 2),
    ((2, 3, 5, 5), 2, 2),
    ((1, 2, 9, 8), 3, 3),
    ((2, 3, 7, 5), 3, 2),
]


def _signed_half_steps(rng, shape, dtype):
    """Half-steps in [-2, 2] with about 20% -0.0, so ties, signed zeros and
    all-negative windows are common. The first channel starts with an
    all-negative 3x3 corner, and the last with a 3x3 corner of mixed +-0.0."""
    x = rng.integers(-4, 5, size=shape) / 2
    x = np.where(rng.random(shape) < 0.2, -0.0, x)
    x[:, 0, :3, :3] = -rng.integers(1, 5, size=(shape[0], 3, 3)) / 2
    x[:, -1, :3, :3] = np.where(rng.random((shape[0], 3, 3)) < 0.5, -0.0, 0.0)
    return x.astype(dtype)


def _signed_upstream(rng, shape, dtype):
    """Integer upstream gradient in [-3, 3] with about 20% -0.0."""
    g = rng.integers(-3, 4, size=shape).astype(dtype)
    return np.where(rng.random(shape) < 0.2, -0.0, g).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, k, stride", _MASKED_REF_CASES)
def test_maxpool_bytes_match_masked_argmax_reference(shape, k, stride, dtype):
    rng = np.random.default_rng(sum(shape) + k)
    # Relu'd half-steps: zeros and repeated values tie often.
    raw = rng.integers(-4, 5, size=shape) / 2
    x = np.where(raw > 0, raw, 0).astype(dtype)
    out = T.maxpool2d(Tensor(chwb(x), requires_grad=True), k, stride=stride)
    g = rng.uniform(-1, 1, size=nchw(out.data).shape).astype(dtype)
    (gx,) = out.node.grad_fn(chwb(g))

    ref_out, ref_gx = _maxpool_masked_argmax(x, g, k, stride)
    assert out.data.dtype == dtype and gx.dtype == dtype
    assert out.data.tobytes() == chwb(ref_out).tobytes()
    assert gx.tobytes() == chwb(ref_gx).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, k, stride", _MASKED_REF_CASES + _ODD_CASES)
def test_maxpool_bytes_match_masked_argmax_reference_on_signed_input(shape, k, stride, dtype):
    """The pool reads pre-activations: negatives, -0.0 and all-negative
    windows. The adjoint is compared as the op returns it, so a -0.0 that
    accumulating into zeros would turn into +0.0 must come out +0.0."""
    rng = np.random.default_rng(sum(shape) + k + 1)
    x = _signed_half_steps(rng, shape, dtype)
    out = T.maxpool2d(Tensor(chwb(x), requires_grad=True), k, stride=stride)
    g = _signed_upstream(rng, nchw(out.data).shape, dtype)
    (gx,) = out.node.grad_fn(chwb(g))

    ref_out, ref_gx = _maxpool_masked_argmax(x, g, k, stride)
    assert out.data.tobytes() == chwb(ref_out).tobytes()
    assert gx.tobytes() == chwb(ref_gx).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, k, stride",
                         _MASKED_REF_CASES + _ODD_CASES + [((2, 3, 7, 5), 3, 1)])
def test_maxpool_without_a_tape_matches_the_taped_bytes(shape, k, stride, dtype):
    rng = np.random.default_rng(sum(shape) + k + 2)
    x = chwb(_signed_half_steps(rng, shape, dtype))
    taped = T.maxpool2d(Tensor(x, requires_grad=True), k, stride=stride)
    assert taped.node is not None
    with T.no_grad():
        frozen = T.maxpool2d(Tensor(x, requires_grad=True), k, stride=stride)
    constant = T.maxpool2d(Tensor(x), k, stride=stride)
    for out in (frozen, constant):
        assert out.node is None and not out.requires_grad
        assert out.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, k, stride",
                         [((32, 16, 16, 16), 2, 2), ((2, 3, 7, 5), 3, 1)] + _ODD_CASES)
def test_pool_then_relu_bytes_equal_relu_then_pool(shape, k, stride, dtype):
    """relu is monotone: relu(maxpool(y)) == maxpool(relu(y)) on finite y,
    and the leaf gradient lands on the same cells with the same bytes."""
    rng = np.random.default_rng(sum(shape) + k + 3)
    x = chwb(_signed_half_steps(rng, shape, dtype))
    pool_first, relu_first = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    out = T.relu(T.maxpool2d(pool_first, k, stride=stride))
    ref = T.maxpool2d(T.relu(relu_first), k, stride=stride)
    g = Tensor(chwb(_signed_upstream(rng, nchw(out.data).shape, dtype)))
    T.backward(T.tensor_sum(T.mul(out, g)))
    T.backward(T.tensor_sum(T.mul(ref, g)))
    assert out.dtype == dtype and pool_first.grad.dtype == dtype
    assert out.data.tobytes() == ref.data.tobytes()
    assert pool_first.grad.tobytes() == relu_first.grad.tobytes()


# ---------------------------------------------------------------------------
# relu / log_softmax
# ---------------------------------------------------------------------------


def test_relu_values():
    out = T.relu(t64([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_positive_passthrough():
    x = t64([0.5, 1.0, 99.0])
    np.testing.assert_array_equal(T.relu(x).data, x.data)


def test_relu_gradient_sides():
    x = t64([3.0, -3.0], requires_grad=True)
    T.backward(T.tensor_sum(T.relu(x)))
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bytes_and_gradient_match_where_reference(dtype):
    """Forward bytes equal np.where(x > 0, x, 0): -0.0, NaN and negative
    subnormals map to +0.0; +inf and positive subnormals pass. The adjoint
    is g * (x > 0)."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                        info.tiny / 2, -info.tiny / 2, info.max, -info.max], dtype=dtype)
    rng = np.random.default_rng(0)
    normals = rng.standard_normal(500).astype(dtype)
    data = np.concatenate([special, normals, special[::-1]])
    for x in (data, data.reshape(2, -1), data.reshape(2, -1).T):
        t = Tensor(x, requires_grad=True)
        out = T.relu(t)
        ref = np.where(x > 0, x, 0)
        assert out.dtype == dtype
        assert out.data.tobytes() == np.ascontiguousarray(ref).tobytes()
        g = rng.standard_normal(x.shape).astype(dtype)
        (gx,) = out.node.grad_fn(g)
        assert gx.dtype == dtype
        assert gx.tobytes() == np.ascontiguousarray(g * (x > 0)).tobytes()


def test_log_softmax_uniform():
    out = T.log_softmax(t64([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, np.full((1, 4), -np.log(4.0)), atol=1e-12)


def test_log_softmax_no_overflow():
    out = T.log_softmax(t64([[1000.0, 0.0]]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [[0.0, -1000.0]], atol=1e-12)


def test_log_softmax_rows_normalize_f64():
    rng = np.random.default_rng(3)
    x = t64(rng.uniform(-5, 5, size=(8, 11)))
    sums = np.exp(T.log_softmax(x).data).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_log_softmax_rows_normalize_f32():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-5, 5, size=(8, 11)).astype(np.float32))
    sums = np.exp(T.log_softmax(x).data).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = t64([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.tensor_sum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_half_square_norm_gives_theta():
    x = t64([1.0, -2.0, 0.5], requires_grad=True)
    T.backward(T.scale(T.tensor_sum(T.mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, x.data)


def test_backward_rejects_non_scalar():
    x = t64([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.relu(x))


def test_backward_leaves_unreachable_grads_untouched():
    x = t64([1.0, 2.0], requires_grad=True)
    y = t64([3.0, 4.0], requires_grad=True)
    y.grad[...] = 7.0
    T.backward(T.tensor_sum(x))
    np.testing.assert_array_equal(y.grad, [7.0, 7.0])


def test_backward_accumulates_across_calls():
    x = t64([1.0, 1.0], requires_grad=True)
    T.backward(T.tensor_sum(x))
    T.backward(T.tensor_sum(x))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_second_backward_of_a_loss_is_a_contract_error():
    """The first walk consumed the tape; a second one would have added the
    gradient again. It is refused before any leaf changes."""
    x = t64([1.0, -2.0, 3.0], requires_grad=True)
    loss = T.tensor_sum(T.mul(T.relu(x), x))
    T.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ContractError, match="earlier backward consumed"):
        T.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_through_a_subgraph_another_backward_walked_is_a_contract_error():
    x = t64([1.0, -2.0, 3.0], requires_grad=True)
    h = T.relu(T.mul(x, x))
    T.backward(T.tensor_sum(h))
    with pytest.raises(ContractError, match="relu node whose graph an earlier backward consumed"):
        T.backward(T.tensor_sum(T.scale(h, 2.0)))


def _activation_refs(loss, held):
    """Weak references to the data of every taped tensor behind ``loss``,
    leaving out the tensors in ``held``, and the oldest node behind it."""
    refs, seen, stack, oldest = [], set(), [loss], loss.node
    while stack:
        t = stack.pop()
        if t.node is None or id(t) in seen:
            continue
        seen.add(id(t))
        if all(t is not h for h in held):
            refs.append(weakref.ref(t.data))
        oldest = min(oldest, t.node, key=lambda n: n.seq)
        stack.extend(t.node.parents)
    return refs, oldest


def test_backward_frees_each_activation_while_the_caller_holds_loss_and_logits():
    """As in ``run_training``, the step's logits and loss terms stay bound
    past ``backward``; the activations behind them must not. By the time the
    oldest node's adjoint runs, no newer node's input is left: not even
    through the walk's own loop names. Freeing is by reference count alone,
    with no ``gc.collect``."""
    model = build_model(Architecture("tiny_cnn", (4, 8), (16, 16), 8, 3), rng=Rng(3))
    x = Tensor(np.random.default_rng(3).uniform(0, 1, (4, 3, 16, 16)).astype(np.float32))
    logits = model.forward(x)
    loss, nll, ent = loss_terms(logits, np.array([0, 1, 2, 0]), 0.5)
    refs, oldest = _activation_refs(loss, (loss, nll, ent, logits))
    assert len(refs) > 10 and all(r() is not None for r in refs)
    live_at_oldest, fn = [], oldest.grad_fn
    oldest.grad_fn = lambda g: (live_at_oldest.append(sum(r() is not None for r in refs)), fn(g))[1]
    T.backward(loss)
    assert live_at_oldest == [0]
    assert [r for r in refs if r() is not None] == []


@pytest.mark.parametrize("shared_is_leaf", [True, False], ids=["leaf", "taped"])
def test_backward_replays_each_reached_node_once_newest_first(shared_is_leaf):
    """One tensor feeds three consumers and a branch that never reaches the
    loss. Each reached grad_fn runs exactly once, in descending ``seq``; the
    dead branch's never run; and the shared tensor's contributions add up
    newest consumer first, parent slots in order, which the bytes show."""
    rng = np.random.default_rng(16)

    def f32(n):
        return (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)).astype(np.float32)

    x = Tensor(f32(64), requires_grad=True)
    wa, wb, wc = Tensor(f32(64)), Tensor(f32(64)), Tensor(f32(64))
    shared = x if shared_is_leaf else T.reshape(x, x.shape)
    a = T.mul(shared, shared)
    b = T.scale(shared, 0.3)
    c = T.relu(shared)
    dead = T.relu(T.scale(shared, 9.0))
    loss = T.tensor_sum(T.add(T.add(T.mul(a, wa), T.mul(b, wb)), T.mul(c, wc)))

    runs, nodes, stack = [], {}, [loss, dead]
    while stack:
        node = stack.pop().node
        if node is None or node.seq in nodes:
            continue
        nodes[node.seq] = node
        node.grad_fn = (lambda fn, seq: lambda g: (runs.append(seq), fn(g))[1])(
            node.grad_fn, node.seq)
        stack.extend(node.parents)
    T.backward(loss)

    dead_seqs = {dead.node.seq, dead.node.parents[0].node.seq}
    assert runs == sorted(set(nodes) - dead_seqs, reverse=True)
    # The walk consumed every node it reached and none it did not.
    for seq, node in nodes.items():
        if seq in dead_seqs:
            assert node.parents and node.grad_fn is not None
        else:
            assert node.parents == () and node.grad_fn is None

    # Consumers newest first: relu, scale, then mul's two slots.
    parts = [wc.data * (x.data > 0), wb.data * 0.3, wa.data * x.data, wa.data * x.data]
    want = np.zeros_like(x.data)
    if shared_is_leaf:
        for part in parts:
            want += part
    else:
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        want += acc
    assert x.grad.tobytes() == want.tobytes()
    oldest_first = np.zeros_like(x.data)
    for part in parts[::-1]:
        oldest_first += part
    assert oldest_first.tobytes() != want.tobytes()  # the order shows in the bytes


def test_tape_is_linear():
    """grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2)."""
    rng = np.random.default_rng(5)
    data = rng.uniform(-1, 1, size=(4, 3))

    def g1():
        x = t64(data, requires_grad=True)
        T.backward(T.tensor_sum(T.relu(x)))
        return x.grad

    def g2():
        x = t64(data, requires_grad=True)
        T.backward(T.tensor_sum(T.mul(x, x)))
        return x.grad

    a, b = 2.5, -1.25
    x = t64(data, requires_grad=True)
    combined = T.add(
        T.scale(T.tensor_sum(T.relu(x)), a), T.scale(T.tensor_sum(T.mul(x, x)), b)
    )
    T.backward(combined)
    np.testing.assert_allclose(x.grad, a * g1() + b * g2(), atol=1e-10)


def test_no_grad_suppresses_taping():
    x = t64([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        out = T.tensor_sum(x)
    assert out.node is None


# ---------------------------------------------------------------------------
# elementwise, bias add, shape ops
# ---------------------------------------------------------------------------


def test_bias_add_broadcast_and_adjoint():
    x = t64(np.zeros((2, 3)), requires_grad=True)
    b = t64([1.0, 2.0, 3.0], requires_grad=True)
    out = T.add(x, b)
    np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])
    T.backward(T.tensor_sum(out))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])  # summed over batch
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        T.add(t64(np.zeros((2, 3))), t64(np.zeros((3, 2))))


def test_mixed_dtype_rejected():
    a = Tensor(np.zeros(2, dtype=np.float32))
    b = Tensor(np.zeros(2, dtype=np.float64))
    with pytest.raises(TypeError):
        T.add(a, b)


def test_elementwise_and_matmul_forward_values():
    a = t64([2.0, 4.0])
    b = t64([1.0, 2.0])
    np.testing.assert_array_equal(T.add(a, b).data, [3.0, 6.0])
    np.testing.assert_array_equal(T.sub(a, b).data, [1.0, 2.0])
    np.testing.assert_array_equal(T.mul(a, b).data, [2.0, 8.0])
    np.testing.assert_array_equal(T.scale(a, 1.0 / 2.0).data, [1.0, 2.0])
    np.testing.assert_array_equal(T.scale(a, -1.0).data, [-2.0, -4.0])
    np.testing.assert_array_equal(T.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]])).data, [[11.0]])


def test_sub_rejects_a_bias_shaped_operand():
    """Only ``add`` broadcasts a trailing-axis bias; ``sub`` takes equal shapes."""
    with pytest.raises(ShapeError):
        T.sub(t64(np.zeros((2, 3))), t64(np.zeros(3)))


def test_reshape_transpose_roundtrip():
    x = t64(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    y = T.transpose(T.reshape(x, (6, 4)), (1, 0))
    assert y.shape == (4, 6)
    T.backward(T.tensor_sum(T.mul(y, y)))
    np.testing.assert_allclose(x.grad, 2 * x.data)


@pytest.mark.parametrize("size, shape", [
    (0, (2**32, 2**32)),  # 2**64 wraps to 0 in int64
    (6, (-2, -3)),  # negative dims whose product is the size
    (6, (-1, 6)),  # no dim is inferred
])
def test_reshape_refuses_a_shape_of_another_size_with_shape_error(size, shape):
    with pytest.raises(ShapeError, match="reshape"):
        T.reshape(t64(np.zeros(size)), shape)


def test_transpose_adjoint_applies_the_inverse_permutation():
    x = t64(np.arange(120.0).reshape(2, 3, 4, 5), requires_grad=True)
    y = T.transpose(x, (2, 0, 3, 1))
    assert y.shape == (4, 2, 5, 3)
    (gx,) = y.node.grad_fn(y.data)
    assert gx.shape == x.shape and np.array_equal(gx, x.data)


def test_mean_reduction_axis_and_full():
    x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    m = T.tensor_mean(x, axis=0)
    np.testing.assert_allclose(m.data, [1.5, 2.5, 3.5])
    full = T.tensor_mean(x)
    np.testing.assert_allclose(full.data, 2.5)
    T.backward(full)
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_scalar_reduction_has_0d_shape():
    # regression: reductions must yield true scalars, not shape-(1,) arrays
    out = T.tensor_sum(t64([1.0, 2.0]))
    assert out.shape == ()
    assert out.item() == 3.0


# ---------------------------------------------------------------------------
# debug finiteness checks
# ---------------------------------------------------------------------------


def test_debug_checks_flag_nan_production():
    x = t64([1e308])
    with np.errstate(over="ignore"):
        try:
            T.set_debug_checks(True)
            with pytest.raises(NumericsError):
                T.add(x, x)  # overflows to inf
        finally:
            T.set_debug_checks(False)
        out = T.add(x, x)  # silent when the flag is off
    assert np.isinf(out.data).all()


def test_parameter_carries_name_and_grad():
    p = Parameter("w", np.zeros((2, 2), dtype=np.float32))
    assert p.name == "w" and p.requires_grad
    assert p.grad.shape == (2, 2)
