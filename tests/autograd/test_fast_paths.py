"""The conv, pooling and frozen-BatchNorm fast paths are bit-identical.

Each fast path replaced an older formulation.  Those formulations live on
here only as test oracles: ``np.pad`` + slice-copy im2col/col2im for
``conv2d``, im2col + ``mean`` / ``np.repeat`` + col2im for ``avg_pool2d``,
and the multi-node Tensor chain for eval-mode ``BatchNorm2d``.  Every
comparison is ``np.array_equal`` on forward outputs and on input and
parameter gradients, in float64 and float32.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, arrays as A, functional as F
from repro.autograd.precision import precision
from repro.nn.layers.norm import BatchNorm2d

pytestmark = pytest.mark.kernels

DTYPES = ("float64", "float32")


# ----------------------------------------------------------------------
# Oracles: the replaced formulations
# ----------------------------------------------------------------------
def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def old_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, ki, kj] = x[:, :, ki:ki + stride * oh:stride,
                                   kj:kj + stride * ow:stride]
    return cols.reshape(n, c * kernel * kernel, oh * ow), (oh, ow)


def old_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[:, :, ki:ki + stride * oh:stride,
                   kj:kj + stride * ow:stride] += cols[:, :, ki, kj]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def old_conv2d(x, weight, bias, stride, padding, grad):
    """(out, grad_x, grad_w, grad_b) of the np.pad im2col convolution."""
    n = x.shape[0]
    c_out, kernel = weight.shape[0], weight.shape[2]
    cols, (oh, ow) = old_im2col(x, kernel, stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = np.matmul(w_mat, cols).reshape(n, c_out, oh, ow)
    out = out + bias.reshape(1, c_out, 1, 1)
    grad_mat = grad.reshape(n, c_out, oh * ow)
    grad_w = np.tensordot(grad_mat, cols, axes=([0, 2], [0, 2]))
    grad_x = old_col2im(np.matmul(w_mat.T, grad_mat), x.shape, kernel,
                        stride, padding)
    return out, grad_x, grad_w.reshape(weight.shape), grad.sum(axis=(0, 2, 3))


def old_avg_pool2d(x, kernel, stride, padding, grad):
    """(out, grad_x) of the im2col + mean / repeat + col2im pooling."""
    n, c, h, w = x.shape
    cols, (oh, ow) = old_im2col(x.reshape(n * c, 1, h, w), kernel, stride,
                                padding)
    out = cols.mean(axis=1).reshape(n, c, oh, ow)
    grad_cols = np.repeat(grad.reshape(n * c, 1, oh * ow) / (kernel * kernel),
                          kernel * kernel, axis=1)
    grad_x = old_col2im(grad_cols, (n * c, 1, h, w), kernel, stride, padding)
    return out, grad_x.reshape(n, c, h, w)


def old_batch_norm_eval(bn, x):
    """The eval-mode BatchNorm2d forward as a chain of Tensor ops."""
    mean = Tensor(bn.running_mean.reshape(1, -1, 1, 1))
    var = Tensor(bn.running_var.reshape(1, -1, 1, 1))
    normalised = (x - mean) * ((var + bn.eps) ** -0.5)
    if not bn.affine:
        return normalised
    scale = F.reshape(bn.weight, (1, bn.num_features, 1, 1))
    shift = F.reshape(bn.bias, (1, bn.num_features, 1, 1))
    return normalised * scale + shift


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def window_cases(draw):
    """(dtype, n, c, h, w, kernel, stride, padding, seed) with a non-empty output."""
    kernel = draw(st.sampled_from((1, 2, 3)))
    stride = draw(st.sampled_from((1, 2)))
    padding = draw(st.sampled_from((0, 1)))
    low = max(1, kernel - 2 * padding)
    h = draw(st.integers(low, 7))
    w = draw(st.integers(low, 7))
    return (draw(st.sampled_from(DTYPES)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), h, w, kernel, stride, padding,
            draw(st.integers(0, 2**32 - 1)))


def _normal(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# conv2d
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(window_cases(), st.integers(1, 3))
def test_conv2d_bit_identical(case, c_out):
    dtype, n, c, h, w, kernel, stride, padding, seed = case
    rng = np.random.default_rng(seed)
    with precision(dtype):
        x = Tensor(_normal(rng, (n, c, h, w), dtype), requires_grad=True)
        weight = Tensor(_normal(rng, (c_out, c, kernel, kernel), dtype),
                        requires_grad=True)
        bias = Tensor(_normal(rng, (c_out,), dtype), requires_grad=True)
        out = F.conv2d(x, weight, bias, stride=stride, padding=padding)
        grad = _normal(rng, out.shape, dtype)
        out.backward(grad)
    expected = old_conv2d(x.data, weight.data, bias.data, stride, padding, grad)
    for actual, want in zip((out.data, x.grad, weight.grad, bias.grad), expected):
        _assert_same(actual, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pointwise_unfold_is_a_view(dtype):
    x = np.arange(2 * 3 * 4 * 5, dtype=dtype).reshape(2, 3, 4, 5)
    cols, (oh, ow) = A._im2col(x, 1, 1, 0)
    assert (oh, ow) == (4, 5)
    assert np.shares_memory(cols, x)
    _assert_same(cols, old_im2col(x, 1, 1, 0)[0])
    folded = A._col2im(cols, x.shape, 1, 1, 0)
    assert np.shares_memory(folded, cols)
    _assert_same(folded, old_col2im(cols, x.shape, 1, 1, 0))


@settings(max_examples=60, deadline=None)
@given(window_cases())
def test_pad2d_matches_np_pad(case):
    dtype, n, c, h, w, _, _, padding, seed = case
    rng = np.random.default_rng(seed)
    padding += 1
    with precision(dtype):
        x = Tensor(_normal(rng, (n, c, h, w), dtype), requires_grad=True)
        out = F.pad2d(x, padding)
        grad = _normal(rng, out.shape, dtype)
        out.backward(grad)
    spec = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    _assert_same(out.data, np.pad(x.data, spec))
    _assert_same(x.grad, grad[:, :, padding:-padding, padding:-padding])


# ----------------------------------------------------------------------
# avg_pool2d
# ----------------------------------------------------------------------
def _numpy_mean_is_pairwise(kernel, oh, ow):
    """Whether ``mean(axis=1)`` over (N, K², 1) columns summed pairwise.

    With one output pixel the window axis is numpy's innermost reduction
    loop, which switches to pairwise summation from 8 terms on.  Every
    other layout sums the windows in order, as the shifted adds do.
    """
    return oh * ow == 1 and kernel * kernel >= 8


def _sequential_pool(x, kernel, stride, padding):
    """Window sums in k = 0..K²-1 order, then / K² (the specified order)."""
    cols, (oh, ow) = old_im2col(x.reshape(-1, 1, *x.shape[2:]), kernel,
                                stride, padding)
    total = cols[:, 0].copy()
    for k in range(1, kernel * kernel):
        total += cols[:, k]
    return (total / (kernel * kernel)).reshape(*x.shape[:2], oh, ow)


@settings(max_examples=200, deadline=None)
@given(window_cases())
def test_avg_pool2d_bit_identical(case):
    dtype, n, c, h, w, kernel, stride, padding, seed = case
    rng = np.random.default_rng(seed)
    with precision(dtype):
        x = Tensor(_normal(rng, (n, c, h, w), dtype), requires_grad=True)
        out = F.avg_pool2d(x, kernel, stride=stride, padding=padding)
        grad = _normal(rng, out.shape, dtype)
        out.backward(grad)
    want_out, want_grad = old_avg_pool2d(x.data, kernel, stride, padding, grad)
    _assert_same(x.grad, want_grad)
    _assert_same(out.data, _sequential_pool(x.data, kernel, stride, padding))
    if _numpy_mean_is_pairwise(kernel, *out.shape[2:]):
        tol = 1e-5 if dtype == "float32" else 1e-13
        np.testing.assert_allclose(out.data, want_out, rtol=tol, atol=tol)
    else:
        _assert_same(out.data, want_out)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel,stride,padding,size", [
    (kernel, stride, padding, size)
    for kernel, stride, padding in ((2, 2, 0), (3, 1, 1))
    for size in (1, 2, 3, 4, 8)
    if _out_size(size, kernel, stride, padding) >= 1
])
def test_search_space_pools_bit_identical(dtype, kernel, stride, padding, size):
    """The two pools the networks use match the old code at every size,
    single-pixel outputs included."""
    rng = np.random.default_rng(size)
    with precision(dtype):
        x = Tensor(_normal(rng, (2, 3, size, size), dtype), requires_grad=True)
        out = F.avg_pool2d(x, kernel, stride=stride, padding=padding)
        grad = _normal(rng, out.shape, dtype)
        out.backward(grad)
    want_out, want_grad = old_avg_pool2d(x.data, kernel, stride, padding, grad)
    _assert_same(out.data, want_out)
    _assert_same(x.grad, want_grad)


# ----------------------------------------------------------------------
# Batch×channel-innermost window bodies
# ----------------------------------------------------------------------
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def layout_cases(draw):
    """(dtype, n, c, h, w, kernel, stride, padding, seed), with planes on
    both sides of ``HWNC_MAX_PIXELS``."""
    kernel = draw(st.sampled_from((1, 2, 3, 5)))
    stride = draw(st.sampled_from((1, 2)))
    padding = draw(st.sampled_from((0, 1, 2)))
    low = max(1, kernel - 2 * padding)
    h = draw(st.integers(low, 10))
    w = draw(st.integers(low, 10))
    return (draw(st.sampled_from(DTYPES)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), h, w, kernel, stride, padding,
            draw(st.integers(0, 2**32 - 1)))


def _with_specials(rng, shape, dtype):
    """Normal draws with about a quarter replaced by ±0.0, ±inf and NaN."""
    values = _normal(rng, shape, dtype)
    mask = rng.random(shape) < 0.25
    values[mask] = rng.choice(np.array(SPECIALS, dtype=dtype), size=mask.sum())
    return values


def _assert_same_bits(actual, expected):
    """Equal as float hex, signed zeros included; NaNs by position only.

    Which NaN a sum of two NaNs returns depends on the numpy inner loop
    that runs, not on the formulation: ``t += u`` over one element keeps
    ``u``'s NaN, over several ``t``'s, so today's NCHW body itself
    changes NaN signs between one-pixel and wider output rows.
    """
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    nan = np.isnan(actual)
    assert np.array_equal(nan, np.isnan(expected))
    unsigned = f"u{actual.itemsize}"
    assert np.array_equal(actual.view(unsigned)[~nan],
                          expected.view(unsigned)[~nan])


@settings(max_examples=300, deadline=None)
@given(layout_cases())
def test_hwnc_window_bodies_match_nchw_bodies(case):
    """Every batch×channel body equals today's NCHW body as float hex and
    returns a C-contiguous array; the dispatchers equal the oracles."""
    dtype, n, c, h, w, kernel, stride, padding, seed = case
    rng = np.random.default_rng(seed)
    x_shape = (n, c, h, w)
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    cols = _with_specials(rng, (n, c * kernel * kernel, oh * ow), dtype)
    x = _with_specials(rng, x_shape, dtype)
    grad = _with_specials(rng, (n, c, oh, ow), dtype)
    windows = A._pool_windows(kernel, stride, oh, ow)

    pairs = [
        ((A._col2im_hwnc, A._col2im_nchw), (cols, x_shape, kernel, stride, padding)),
        ((A._avg_pool_hwnc, A._avg_pool_nchw), (x, kernel, padding, windows)),
        ((A._avg_pool_grad_hwnc, A._avg_pool_grad_nchw),
         (grad, x_shape, kernel, padding, windows)),
    ]
    # The inputs hold ±inf and NaN on purpose: inf + -inf is NaN.
    with np.errstate(invalid="ignore"):
        for (hwnc, nchw), args in pairs:
            fast = hwnc(*args)
            assert fast.flags.c_contiguous
            _assert_same_bits(fast, nchw(*args))
        want = old_col2im(cols, x_shape, kernel, stride, padding)
        folded = A._col2im(cols, x_shape, kernel, stride, padding)
        if A._is_pointwise(kernel, stride, padding):
            # A pointwise fold is a view of ``cols``: its -0.0 stays -0.0
            # where a fold onto +0.0 gives +0.0, so only the values are
            # equal.
            np.testing.assert_array_equal(folded, want)
        else:
            _assert_same_bits(folded, want)
        _assert_same_bits(A._avg_pool(x, kernel, padding, windows),
                          _sequential_pool(x, kernel, stride, padding))


@st.composite
def unfold_cases(draw):
    """(dtype, n, c, h, w, kernel, stride, padding, seed), with planes on
    both sides of ``HWNC_MAX_PIXELS`` and of ``HWNC_POOL_GRAD_MAX_PIXELS``."""
    kernel = draw(st.sampled_from((1, 2, 3)))
    stride = draw(st.sampled_from((1, 2)))
    padding = draw(st.sampled_from((0, 1)))
    low = max(1, kernel - 2 * padding)
    h = draw(st.integers(low, 18))
    w = draw(st.integers(low, 18))
    return (draw(st.sampled_from(DTYPES)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), h, w, kernel, stride, padding,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(unfold_cases())
def test_strided_unfold_matches_take_unfold(case):
    """The strided unfold copies the same entries as the ``np.take`` body,
    byte for byte (−0.0, ±inf and NaN included), into a fresh
    C-contiguous array; the dispatcher equals the slice-copy oracle, and
    the pool adjoint's dispatcher equals its NCHW body."""
    dtype, n, c, h, w, kernel, stride, padding, seed = case
    x = _with_specials(np.random.default_rng(seed), (n, c, h, w), dtype)
    strided = A._im2col_strided(x, kernel, stride, padding)
    assert strided.flags.c_contiguous
    assert not np.shares_memory(strided, x)
    assert strided.tobytes() == A._im2col_take(x, kernel, stride,
                                               padding).tobytes()
    cols, size = A._im2col(x, kernel, stride, padding)
    want, want_size = old_im2col(x, kernel, stride, padding)
    assert size == want_size
    assert cols.dtype == want.dtype and cols.tobytes() == want.tobytes()

    oh, ow = size
    grad = _with_specials(np.random.default_rng(seed + 1), (n, c, oh, ow),
                          dtype)
    windows = A._pool_windows(kernel, stride, oh, ow)
    with np.errstate(invalid="ignore"):  # inf + -inf in the adjoint sums
        _assert_same_bits(
            A._avg_pool_grad(grad, x.shape, kernel, padding, windows),
            A._avg_pool_grad_nchw(grad, x.shape, kernel, padding, windows))


# ----------------------------------------------------------------------
# Eval-mode BatchNorm2d
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DTYPES), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 5), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_batch_norm_eval_bit_identical(dtype, n, c, size, affine, frozen, seed):
    rng = np.random.default_rng(seed)
    with precision(dtype):
        bn = BatchNorm2d(c, affine=affine)
        bn.running_mean[...] = rng.standard_normal(c)
        bn.running_var[...] = rng.uniform(0.1, 2.0, c)
        if affine:
            bn.weight.data[...] = rng.standard_normal(c)
            bn.bias.data[...] = rng.standard_normal(c)
        bn.train(False)
        bn.freeze_stats_on_forward = frozen
        data = _normal(rng, (n, c, size, size), dtype)
        grad = _normal(rng, (n, c, size, size), dtype)

        x = Tensor(data, requires_grad=True)
        out = bn(x)
        out.backward(grad)
        got = [out.data, x.grad]
        if affine:
            got += [bn.weight.grad, bn.bias.grad]
            bn.zero_grad()

        bn.freeze_stats_on_forward = False   # statistics already written
        x_old = Tensor(data, requires_grad=True)
        out_old = old_batch_norm_eval(bn, x_old)
        out_old.backward(grad)
        want = [out_old.data, x_old.grad]
        if affine:
            want += [bn.weight.grad, bn.bias.grad]
    for actual, expected in zip(got, want):
        _assert_same(actual, expected)


def test_batch_norm_eval_is_one_tape_node():
    bn = BatchNorm2d(3).eval()
    x = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
    out = bn(x)
    assert set(map(id, out._parents)) == {id(x), id(bn.weight), id(bn.bias)}
    assert len(out.tape_nodes()) == 4
