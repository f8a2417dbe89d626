"""Wall-clock timing helpers used by the search-cost accounting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass
class CostLedger:
    """Accumulates named cost entries (seconds, evaluation counts).

    Search algorithms record every proxy evaluation and every simulated
    training here so benchmarks can report total search cost in a uniform
    way.
    """

    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, key: str, seconds: float = 0.0, count: int = 1) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.counts[key] = self.counts.get(key, 0) + count

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def merged(self, other: "CostLedger") -> "CostLedger":
        out = CostLedger(dict(self.seconds), dict(self.counts))
        for key, sec in other.seconds.items():
            out.seconds[key] = out.seconds.get(key, 0.0) + sec
        for key, cnt in other.counts.items():
            out.counts[key] = out.counts.get(key, 0) + cnt
        return out


def format_duration(seconds: float) -> str:
    """Render seconds as a short human-readable duration string."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f}min"
    return f"{seconds / 3600.0:.2f}h"


def collect_durations(timers: List[Timer]) -> float:
    """Sum elapsed time across a list of finished timers."""
    return sum(t.elapsed for t in timers)
