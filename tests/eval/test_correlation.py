"""Rank correlations: cross-checks and edge cases."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.eval.correlation import (
    kendall_tau,
    kendall_tau_naive,
    pearson,
    spearman_rho,
)

float_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=40, unique=True
)


class TestKendall:
    def test_perfect_agreement(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_known_value(self):
        # One discordant pair out of three: tau = (2-1)/3.
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_constant_input_returns_zero(self):
        assert kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    @given(float_lists)
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_reference(self, xs):
        rng = np.random.default_rng(0)
        ys = list(rng.permutation(xs))
        assert kendall_tau(xs, ys) == pytest.approx(kendall_tau_naive(xs, ys))

    @given(float_lists)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_bounds(self, xs):
        ys = xs[::-1]
        tau = kendall_tau(xs, ys)
        assert -1.0 <= tau <= 1.0
        assert tau == pytest.approx(kendall_tau(ys, xs))


class TestSpearmanPearson:
    def test_spearman_monotone_transform_invariant(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [np.exp(v) for v in x]
        assert spearman_rho(x, y) == pytest.approx(1.0)

    def test_pearson_linear(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [2.0 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_pearson_constant_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0


class TestValidation:
    @pytest.mark.parametrize("fn", [kendall_tau, spearman_rho, pearson])
    def test_length_mismatch(self, fn):
        with pytest.raises(ReproError):
            fn([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("fn", [kendall_tau, spearman_rho, pearson])
    def test_too_short(self, fn):
        with pytest.raises(ReproError):
            fn([1], [1])

    def test_2d_rejected(self):
        with pytest.raises(ReproError):
            kendall_tau(np.zeros((2, 2)), np.zeros((2, 2)))


def test_harness_import_does_not_load_scipy():
    """SciPy and networkx are imported lazily: the search harness never
    pays for them at start-up."""
    code = ("import sys, repro.runtime.harness; "
            "print(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules), 'networkx' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "False"]
