"""Search-outcome container shared by every algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.searchspace.genotype import Genotype
from repro.utils.timing import CostLedger


@dataclass
class SearchResult:
    """What a search run produced and what it cost.

    ``wall_seconds`` is the measured host wall-clock of the search itself;
    ``simulated_gpu_seconds`` is the *accounted* training time train-based
    baselines would have paid (zero for zero-shot methods).  The paper's
    "Search Time" column reports GPU-hours, i.e.
    ``(wall_seconds + simulated_gpu_seconds) / 3600``.
    """

    genotype: Genotype
    algorithm: str
    indicators: Dict[str, float] = field(default_factory=dict)
    history: List[Dict] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    wall_seconds: float = 0.0
    simulated_gpu_seconds: float = 0.0
    weights_used: Optional[Dict[str, float]] = None

    @property
    def arch_str(self) -> str:
        return self.genotype.to_arch_str()

    @property
    def num_evaluations(self) -> int:
        """Candidates the search scored, by each search family's tally
        (proxy and cost evaluations and cache hits are not candidates)."""
        return sum(self.ledger.counts.get(key, 0) for key in (
            "random_candidates", "pruning_candidates",
            "evolution_candidates", "macro_candidates",
            "simulated_training"))

    @property
    def search_gpu_hours(self) -> float:
        """Total accounted search cost in hours (paper's reporting unit)."""
        return (self.wall_seconds + self.simulated_gpu_seconds) / 3600.0

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.arch_str} "
            f"({self.num_evaluations} evals, {self.search_gpu_hours:.3f} h)"
        )

    # ------------------------------------------------------------------
    # Serialisation (experiment records)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable record of the run (for experiment logs)."""
        return {
            "algorithm": self.algorithm,
            "arch_str": self.arch_str,
            "arch_index": self.genotype.to_index(),
            "indicators": {k: float(v) for k, v in self.indicators.items()},
            "history": self.history,
            "wall_seconds": self.wall_seconds,
            "simulated_gpu_seconds": self.simulated_gpu_seconds,
            "weights_used": self.weights_used,
            "ledger": {
                "seconds": dict(self.ledger.seconds),
                "counts": dict(self.ledger.counts),
            },
        }

    def save_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as pretty-printed JSON."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=str)

    @classmethod
    def load_json(cls, path: str) -> "SearchResult":
        """Reload a result saved with :meth:`save_json`.

        The ledger and history round-trip; the genotype is rebuilt from its
        index.
        """
        import json

        from repro.searchspace.genotype import Genotype

        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        ledger = CostLedger(
            seconds=dict(payload["ledger"]["seconds"]),
            counts={k: int(v) for k, v in payload["ledger"]["counts"].items()},
        )
        return cls(
            genotype=Genotype.from_index(int(payload["arch_index"])),
            algorithm=payload["algorithm"],
            indicators=payload.get("indicators", {}),
            history=payload.get("history", []),
            ledger=ledger,
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            simulated_gpu_seconds=float(payload.get("simulated_gpu_seconds", 0.0)),
            weights_used=payload.get("weights_used"),
        )
