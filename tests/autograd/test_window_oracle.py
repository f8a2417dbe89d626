"""The window kernels against a direct-loop oracle that shares no code
with them (``tests/oracles/window_kernels.py``).

The differential tests of the compiled plans cannot see a fault in a
window kernel, because plan and module tree both call it.  Here every
unfold body and the fold are checked against the definitions, on planes
on both sides of the 64-pixel switch between their bodies.  The oracle
adds overlapping taps in another order, so folds compare at 1e-12
relative; unfolds are pure copies and compare exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import arrays as A
from tests.oracles import window_kernels as oracle

pytestmark = pytest.mark.kernels

#: (H, W) planes: below, at and above the 64-pixel small-plane limit.
PLANES = [(4, 4), (7, 9), (8, 8), (9, 9), (5, 13), (16, 16)]

UNFOLDS = [A._im2col_take, A._im2col_strided]
FOLDS = [A._col2im, A._col2im_nchw, A._col2im_hwnc]


def _assert_close(got, expected):
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


def _check(n, c, h, w, kernel, stride, padding, seed):
    if oracle.out_size(min(h, w), kernel, stride, padding) < 1:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    expected_cols = oracle.im2col(x, kernel, stride, padding)
    for unfold in UNFOLDS:
        cols = unfold(x, kernel, stride, padding)
        assert cols.shape == expected_cols.shape, unfold.__name__
        np.testing.assert_array_equal(cols, expected_cols,
                                      err_msg=unfold.__name__)
    grads = rng.standard_normal(expected_cols.shape)
    expected = oracle.col2im(grads, x.shape, kernel, stride, padding)
    for fold in FOLDS:
        folded = fold(grads, x.shape, kernel, stride, padding)
        assert folded.shape == x.shape, fold.__name__
        _assert_close(folded, expected)


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_kernels_match_the_oracle(plane, kernel, stride, padding):
    _check(2, 3, *plane, kernel, stride, padding, seed=sum(plane) + kernel)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 17),
       w=st.integers(1, 17), kernel=st.integers(1, 3),
       stride=st.integers(1, 2), padding=st.integers(0, 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fuzzed_shapes_match_the_oracle(n, c, h, w, kernel, stride, padding,
                                        seed):
    _check(n, c, h, w, kernel, stride, padding, seed)


def test_oracle_unfold_and_fold_are_adjoint():
    """⟨im2col(x), g⟩ = ⟨x, col2im(g)⟩: the two oracle halves agree with
    each other, not only with the library."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 2, 9, 7))
    cols = oracle.im2col(x, 3, 2, 1)
    grads = rng.standard_normal(cols.shape)
    lhs = float((cols * grads).sum())
    rhs = float((x * oracle.col2im(grads, x.shape, 3, 2, 1)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
