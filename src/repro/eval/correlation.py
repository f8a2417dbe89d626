"""Rank-correlation measures used throughout the paper's analysis.

Kendall-τ is the paper's headline correlation (Fig. 2a/2b).  We wrap SciPy
where available but keep a pure-NumPy fallback so the implementations are
testable against each other.  SciPy is imported on first use: importing
``scipy.stats`` costs about a second, and no search path needs it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError


def _validate(a: Sequence[float], b: Sequence[float]) -> tuple:
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ReproError(f"correlation inputs must be equal-length 1-D, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ReproError("correlation needs at least two points")
    return x, y


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall rank correlation τ-b (handles ties)."""
    from scipy import stats

    x, y = _validate(a, b)
    tau = stats.kendalltau(x, y).statistic
    return float(tau) if np.isfinite(tau) else 0.0


def kendall_tau_naive(a: Sequence[float], b: Sequence[float]) -> float:
    """O(n²) τ-a reference implementation (no tie correction).

    Used in tests to cross-check :func:`kendall_tau` on tie-free inputs.
    """
    x, y = _validate(a, b)
    n = x.size
    concordant = 0
    discordant = 0
    for i in range(n):
        dx = x[i + 1:] - x[i]
        dy = y[i + 1:] - y[i]
        sign = np.sign(dx) * np.sign(dy)
        concordant += int((sign > 0).sum())
        discordant += int((sign < 0).sum())
    total = n * (n - 1) / 2
    return (concordant - discordant) / total


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation."""
    from scipy import stats

    x, y = _validate(a, b)
    rho = stats.spearmanr(x, y).statistic
    return float(rho) if np.isfinite(rho) else 0.0


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson linear correlation."""
    x, y = _validate(a, b)
    if x.std() == 0.0 or y.std() == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])
