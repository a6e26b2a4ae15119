"""Training-history recording (the convergence curves of Figure 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["EpochRecord", "TrainingHistory"]


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's metrics.

    The three ``*_seconds`` timings are wall time on the training thread:
    with P ranks, ``training_seconds`` covers the P rank steps running on
    lanes and meeting in the all-reduce (not a sum over ranks), and
    ``sampling_seconds`` the time the trainer waited for sampled steps.
    ``comm_modeled_seconds`` is the α–β model's all-reduce charge.
    """

    epoch: int
    train_loss: float
    val_precision: float
    val_recall: float
    epoch_seconds: float = 0.0
    sampling_seconds: float = 0.0
    training_seconds: float = 0.0
    comm_modeled_seconds: float = 0.0

    @property
    def val_f1(self) -> float:
        p, r = self.val_precision, self.val_recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


@dataclass
class TrainingHistory:
    """Ordered epoch records plus convenience accessors."""

    label: str = ""
    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> EpochRecord:
        return self.records[i]

    @property
    def final(self) -> EpochRecord:
        if not self.records:
            raise ValueError("empty history")
        return self.records[-1]

    def best(self, metric: str = "val_f1") -> EpochRecord:
        """Record with the best value of ``metric``."""
        if not self.records:
            raise ValueError("empty history")
        return max(self.records, key=lambda r: getattr(r, metric))

    def series(self, metric: str) -> List[float]:
        """The per-epoch series of ``metric`` (for plotting/benching)."""
        return [getattr(r, metric) for r in self.records]

    def summary(self) -> Dict[str, float]:
        f = self.final
        return {
            "epochs": float(len(self.records)),
            "final_precision": f.val_precision,
            "final_recall": f.val_recall,
            "final_f1": f.val_f1,
            "total_seconds": sum(r.epoch_seconds for r in self.records),
        }
