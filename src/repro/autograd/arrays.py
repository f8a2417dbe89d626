"""Array-level window kernels shared by autograd ops and compiled plans.

These functions take and return plain numpy arrays: no :class:`~repro.\
autograd.tensor.Tensor`, no tape.  :mod:`repro.autograd.functional`
wraps them into differentiable ops (``conv2d``, ``pad2d``,
``avg_pool2d``), and the compiled proxy plans of
:mod:`repro.engine.plan` call them directly, so a plan runs the same
numpy calls on the same operands as the op it replaces.  Keeping them
apart from the ops lets the plans, and so the proxies and the run
harness, load without the autograd tape.

Convolution uses im2col and col2im, both zero-copy reshapes for 1×1
kernels; average pooling sums shifted strided windows instead of
unfolding, and padding writes into one zero-bordered buffer
(:func:`_zero_pad`) rather than calling ``np.pad``.

The unfold (``_im2col``) has two bodies, both pure copies of the same
entries of the zero-bordered input: on a small plane (H·W ≤
``HWNC_MAX_PIXELS`` = 64) one ``np.take`` over memoized flat indices
(``_im2col_take``), on a larger one a strided window view copied by one
reshape (``_im2col_strided``), which skips the index gather.

The three window kernels — the conv input-gradient fold (``_col2im``),
the average-pool forward and its adjoint — each have two bodies as well.
With a kernel wider than 1×1 (fold) or at least 3×3 (pools) they run
batch×channel innermost (``_*_hwnc``) on a small plane: one transposing
copy to (H, W, N·C), the same K² window adds with each add running over
a whole output row times N·C, and one copy back to a C-contiguous NCHW
array.  A plane is small for the fold and the pool forward up to
``HWNC_MAX_PIXELS`` pixels, and for the pool adjoint up to
``HWNC_POOL_GRAD_MAX_PIXELS`` = 256 (16×16), where the NCHW adjoint's
short-row adds still cost more than the two copies.  Every other shape
keeps the NCHW body (``_*_nchw``).  Each pixel adds its taps in the same
(ki, kj) order from the same start in both bodies, so they agree as
float hex; only elementwise adds change layout, never a matmul operand.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Default BatchNorm variance epsilon (every network in the library uses it).
DEFAULT_EPS = 1e-5


def _zero_pad(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` with its last two axes zero-bordered by ``padding``.

    Writes ``x`` into the interior of a fresh zero buffer: the same values
    as ``np.pad``, without its per-call Python overhead.
    """
    if not padding:
        return x
    *lead, h, w = x.shape
    out = np.zeros((*lead, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[..., padding:padding + h, padding:padding + w] = x
    return out


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _is_pointwise(kernel: int, stride: int, padding: int) -> bool:
    """Whether unfolding is a pure reshape (1×1 kernel, stride 1, no pad)."""
    return kernel == 1 and stride == 1 and padding == 0


#: Largest plane (H·W input pixels) whose window kernels run with
#: batch×channel innermost.  There each shifted add spans the few pixels
#: of an output row *times* N·C, instead of one numpy inner loop per
#: (n, c, row); on 16×16 planes the fold measured slower, as the two
#: transposing copies cost more than the wider adds save.
HWNC_MAX_PIXELS = 64

#: Largest plane whose average-pool adjoint runs batch×channel innermost.
#: At (32, 8, 16, 16), 3×3, one BLAS thread on a 2-CPU x86 host, the NCHW
#: adjoint took 1.22 ms and the HWNC body 0.55 ms; the pool forward there
#: measured about equal (1.66 against 1.60 ms) and the fold slower in HWNC
#: (1.73 against 1.83 ms), so both keep ``HWNC_MAX_PIXELS``.
HWNC_POOL_GRAD_MAX_PIXELS = 256


def _small_plane(x_shape: Tuple[int, ...],
                 limit: int = HWNC_MAX_PIXELS) -> bool:
    """Whether an NCHW plane has at most ``limit`` pixels."""
    return x_shape[-2] * x_shape[-1] <= limit


def _to_hwnc(x: np.ndarray, padding: int = 0) -> np.ndarray:
    """NCHW ``x`` as a fresh C-contiguous (H, W, N·C) array, zero-bordered
    by ``padding``."""
    n, c, h, w = x.shape
    if not padding:
        return x.transpose(2, 3, 0, 1).copy().reshape(h, w, n * c)
    out = np.zeros((h + 2 * padding, w + 2 * padding, n, c), dtype=x.dtype)
    out[padding:padding + h, padding:padding + w] = x.transpose(2, 3, 0, 1)
    return out.reshape(h + 2 * padding, w + 2 * padding, n * c)


def _from_hwnc(x: np.ndarray, n: int, c: int) -> np.ndarray:
    """(H, W, N·C) ``x`` as a C-contiguous NCHW array."""
    h, w = x.shape[:2]
    return np.ascontiguousarray(x.reshape(h, w, n, c).transpose(2, 3, 0, 1))


@functools.lru_cache(maxsize=None)
def _unfold_index(h: int, w: int, kernel: int, stride: int,
                  padding: int) -> np.ndarray:
    """Flat positions, in the zero-bordered ``h``×``w`` plane, of every
    ``(ki, kj, oi, oj)`` entry an unfold reads (read-only, memoized)."""
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    ki, kj, oi, oj = np.ix_(range(kernel), range(kernel), range(oh), range(ow))
    index = ((ki + stride * oi) * (w + 2 * padding) + kj + stride * oj).reshape(-1)
    index.flags.writeable = False
    return index


def _im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NCHW ``x`` into columns of shape (N, C*K*K, OH*OW).

    A pointwise unfold is a reshape view of ``x`` (no copy); any other
    runs :func:`_im2col_take` on a small plane and
    :func:`_im2col_strided` on a larger one.  Both bodies copy the same
    entries, so their columns are equal byte for byte.
    """
    n, c, h, w = x.shape
    if _is_pointwise(kernel, stride, padding):
        return x.reshape(n, c, h * w), (h, w)
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    unfold = _im2col_take if _small_plane(x.shape) else _im2col_strided
    return unfold(x, kernel, stride, padding), (oh, ow)


def _im2col_take(x: np.ndarray, kernel: int, stride: int,
                 padding: int) -> np.ndarray:
    """:func:`_im2col`'s columns by one ``np.take`` from the zero-bordered
    input (a pure copy: the same values as K² strided slice copies, in
    fewer numpy calls)."""
    n, c, h, w = x.shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    padded = _zero_pad(x, padding).reshape(n, c, -1)
    cols = np.take(padded, _unfold_index(h, w, kernel, stride, padding), axis=2)
    return cols.reshape(n, c * kernel * kernel, oh * ow)


def _im2col_strided(x: np.ndarray, kernel: int, stride: int,
                    padding: int) -> np.ndarray:
    """:func:`_im2col`'s columns as a read-only (N, C, K, K, OH, OW)
    window view of the zero-bordered input, copied once in C order and
    reshaped: the same entries as :func:`_im2col_take` without its index
    gather, and never a view of ``x``."""
    n, c, h, w = x.shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    padded = _zero_pad(x, padding)
    sn, sc, sh, sw = padded.strides
    windows = as_strided(padded, shape=(n, c, kernel, kernel, oh, ow),
                         strides=(sn, sc, sh, sw, sh * stride, sw * stride),
                         writeable=False)
    return windows.copy().reshape(n, c * kernel * kernel, oh * ow)


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back onto the (padded) input, summing overlaps.

    A pointwise fold is a reshape view of ``cols`` (no copy); a wider
    kernel over a small plane runs :func:`_col2im_hwnc`, any other fold
    :func:`_col2im_nchw`.  The view is the one fold not equal to the
    zero-start fold as float hex: a −0.0 column entry stays −0.0 where
    adding it onto +0.0 gives +0.0.  Values are equal, so no indicator
    row changes, and forcing +0.0 would copy every 1×1 conv adjoint.
    """
    if _is_pointwise(kernel, stride, padding):
        return cols.reshape(x_shape)
    if kernel > 1 and _small_plane(x_shape):
        return _col2im_hwnc(cols, x_shape, kernel, stride, padding)
    return _col2im_nchw(cols, x_shape, kernel, stride, padding)


def _col2im_nchw(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """:func:`_col2im` over NCHW planes: K² strided adds into a zeroed
    border, each tap in (ki, kj) order."""
    n, c, h, w = x_shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ki in range(kernel):
        i_end = ki + stride * oh
        for kj in range(kernel):
            j_end = kj + stride * ow
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += cols[:, :, ki, kj, :, :]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _col2im_hwnc(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """:func:`_col2im_nchw` with batch×channel innermost.

    The same K² adds in the same (ki, kj) order onto +0.0, so the result
    is equal as float hex; it comes back as a C-contiguous NCHW array.
    """
    n, c, h, w = x_shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    taps = cols.reshape(n * c, kernel, kernel, oh, ow).transpose(1, 2, 3, 4, 0).copy()
    padded = np.zeros((h + 2 * padding, w + 2 * padding, n * c), dtype=cols.dtype)
    for ki in range(kernel):
        i_end = ki + stride * oh
        for kj in range(kernel):
            j_end = kj + stride * ow
            padded[ki:i_end:stride, kj:j_end:stride] += taps[ki, kj]
    return _from_hwnc(padded[padding:padding + h, padding:padding + w], n, c)


def _pool_windows(kernel: int, stride: int, oh: int, ow: int) -> list:
    """The K² shifted strided window indices of a pool, in window order."""
    return [
        (..., slice(ki, ki + stride * oh, stride), slice(kj, kj + stride * ow, stride))
        for ki in range(kernel)
        for kj in range(kernel)
    ]


def _avg_pool(x: np.ndarray, kernel: int, padding: int, windows: list) -> np.ndarray:
    """Average-pool forward: the windows of the zero-bordered ``x``, summed
    in window order, divided by K².  Runs :func:`_avg_pool_hwnc` for a
    3×3 or wider kernel over a small plane, else :func:`_avg_pool_nchw`."""
    if kernel >= 3 and _small_plane(x.shape):
        return _avg_pool_hwnc(x, kernel, padding, windows)
    return _avg_pool_nchw(x, kernel, padding, windows)


def _avg_pool_nchw(x: np.ndarray, kernel: int, padding: int,
                   windows: list) -> np.ndarray:
    """:func:`_avg_pool` over NCHW planes."""
    padded = _zero_pad(x, padding)
    total = padded[windows[0]].copy()
    for window in windows[1:]:
        total += padded[window]
    return total / (kernel * kernel)


def _avg_pool_hwnc(x: np.ndarray, kernel: int, padding: int,
                   windows: list) -> np.ndarray:
    """:func:`_avg_pool_nchw` with batch×channel innermost: the same window
    sums and division, equal as float hex, as a C-contiguous array.

    ``window[1:]`` drops the leading ``...`` of each window, so its two
    slices index the (H, W) axes that lead here.
    """
    n, c = x.shape[:2]
    padded = _to_hwnc(x, padding)
    total = padded[windows[0][1:]].copy()
    for window in windows[1:]:
        total += padded[window[1:]]
    total /= kernel * kernel
    return _from_hwnc(total, n, c)


def _avg_pool_grad(grad: np.ndarray, x_shape: Tuple[int, int, int, int],
                   kernel: int, padding: int, windows: list) -> np.ndarray:
    """Average-pool adjoint: ``grad / K²`` scattered back through the windows.

    Runs :func:`_avg_pool_grad_hwnc` for a 3×3 or wider kernel over a
    plane of at most ``HWNC_POOL_GRAD_MAX_PIXELS``, else
    :func:`_avg_pool_grad_nchw`.
    """
    if kernel >= 3 and _small_plane(x_shape, HWNC_POOL_GRAD_MAX_PIXELS):
        return _avg_pool_grad_hwnc(grad, x_shape, kernel, padding, windows)
    return _avg_pool_grad_nchw(grad, x_shape, kernel, padding, windows)


def _avg_pool_grad_nchw(grad: np.ndarray, x_shape: Tuple[int, int, int, int],
                        kernel: int, padding: int, windows: list) -> np.ndarray:
    """:func:`_avg_pool_grad` over NCHW planes."""
    n, c, h, w = x_shape
    share = grad / (kernel * kernel)
    folded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=share.dtype)
    for window in windows:
        folded[window] += share
    if padding:
        folded = folded[:, :, padding:-padding, padding:-padding]
    return folded


def _avg_pool_grad_hwnc(grad: np.ndarray, x_shape: Tuple[int, int, int, int],
                        kernel: int, padding: int, windows: list) -> np.ndarray:
    """:func:`_avg_pool_grad_nchw` with batch×channel innermost: the same
    division and window adds onto +0.0, equal as float hex, as a
    C-contiguous array (window slices as in :func:`_avg_pool_hwnc`)."""
    n, c, h, w = x_shape
    share = _to_hwnc(grad)
    share /= kernel * kernel
    folded = np.zeros((h + 2 * padding, w + 2 * padding, n * c), dtype=share.dtype)
    for window in windows:
        folded[window[1:]] += share
    return _from_hwnc(folded[padding:padding + h, padding:padding + w], n, c)
