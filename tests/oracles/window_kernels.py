"""Direct-loop convolution and pool windows, by definition.

This module imports numpy only — never ``repro.autograd.arrays`` — so a
fault in the library's window kernels cannot hide in its oracle.  Every
entry is read or added one tap and one output pixel at a time, in a
loop order of its own.
"""

import numpy as np


def out_size(size, kernel, stride, padding):
    """Output length of a ``kernel`` window sliding over ``size``."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x, kernel, stride, padding):
    """Columns (N, C·K·K, OH·OW): column row ``c·K² + ki·K + kj`` at
    position ``oi·OW + oj`` holds ``x[:, c, oi·s + ki − p, oj·s + kj − p]``,
    or 0 where that pixel lies in the padding."""
    n, c, h, w = x.shape
    oh = out_size(h, kernel, stride, padding)
    ow = out_size(w, kernel, stride, padding)
    cols = np.zeros((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for oi in range(oh):
        for oj in range(ow):
            for ki in range(kernel):
                for kj in range(kernel):
                    i = oi * stride + ki - padding
                    j = oj * stride + kj - padding
                    if 0 <= i < h and 0 <= j < w:
                        cols[:, :, ki, kj, oi, oj] = x[:, :, i, j]
    return cols.reshape(n, c * kernel * kernel, oh * ow)


def col2im(cols, x_shape, kernel, stride, padding):
    """The adjoint of :func:`im2col`: scatter-add every column entry onto
    the input pixel it was read from; entries read from padding drop."""
    n, c, h, w = x_shape
    oh = out_size(h, kernel, stride, padding)
    ow = out_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    out = np.zeros(x_shape, dtype=cols.dtype)
    for oi in range(oh):
        for oj in range(ow):
            for ki in range(kernel):
                for kj in range(kernel):
                    i = oi * stride + ki - padding
                    j = oj * stride + kj - padding
                    if 0 <= i < h and 0 <= j < w:
                        out[:, :, i, j] += cols[:, :, ki, kj, oi, oj]
    return out


def avg_pool(x, kernel, stride, padding):
    """Window means (N, C, OH, OW): output pixel ``(oi, oj)`` is the sum of
    ``x`` over the ``kernel × kernel`` window at ``(oi·s − p, oj·s − p)``
    divided by K², pixels in the padding counting as 0 (NAS-Bench-201's
    ``count_include_pad``)."""
    n, c, h, w = x.shape
    oh = out_size(h, kernel, stride, padding)
    ow = out_size(w, kernel, stride, padding)
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for oi in range(oh):
        for oj in range(ow):
            total = np.zeros((n, c), dtype=x.dtype)
            for ki in range(kernel):
                for kj in range(kernel):
                    i = oi * stride + ki - padding
                    j = oj * stride + kj - padding
                    if 0 <= i < h and 0 <= j < w:
                        total += x[:, :, i, j]
            out[:, :, oi, oj] = total / (kernel * kernel)
    return out


def avg_pool_grad(grad, x_shape, kernel, stride, padding):
    """The adjoint of :func:`avg_pool`: each output pixel's gradient,
    divided by K², is added to every input pixel of its window; the
    shares that fall in the padding drop."""
    n, c, h, w = x_shape
    oh, ow = grad.shape[2:]
    out = np.zeros(x_shape, dtype=grad.dtype)
    for oi in range(oh):
        for oj in range(ow):
            share = grad[:, :, oi, oj] / (kernel * kernel)
            for ki in range(kernel):
                for kj in range(kernel):
                    i = oi * stride + ki - padding
                    j = oj * stride + kj - padding
                    if 0 <= i < h and 0 <= j < w:
                        out[:, :, i, j] += share
    return out
