"""Alert queue construction: four ranking methods over prepared alerts.

All methods sort descending by score with ties broken by ascending alert id,
so every ranking is a deterministic permutation of its input.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .alerts import PreparedAlert
from .errors import ValidationError
from .sgfn import check_kappa, ranking_index


class Method(str, Enum):
    SEVERITY_ONLY = "severity_only"
    CONFIDENCE_ONLY = "confidence_only"
    WEIGHTED_SUM = "weighted_sum"
    RISK_AVERSE = "risk_averse"


@dataclass(frozen=True)
class RiskProfile:
    """Risk attitude for the risk-averse method; kappa >= 0."""

    kappa: float = 1.0

    def __post_init__(self) -> None:
        check_kappa(self.kappa)


class RankedAlert(NamedTuple):
    """One queue position, built on demand when a queue is iterated."""

    rank: int
    alert_id: str
    score: float


@dataclass(frozen=True)
class RankedQueue:
    """A ranking of one alert batch.

    ``records`` is the batch in input order and ``scores`` is aligned with
    it; ``order`` holds record indices from best to worst, so a rank is a
    position in ``order``. A view of the queue (see :meth:`where`) shares
    the records and scores and keeps a subsequence of the order.
    """

    method: Method
    kappa: float | None
    records: Sequence[PreparedAlert]
    scores: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[RankedAlert]:
        for position, i in enumerate(self.order.tolist(), start=1):
            yield RankedAlert(position, self.records[i].alert_id, float(self.scores[i]))

    def ids(self) -> tuple[str, ...]:
        return tuple(self.records[i].alert_id for i in self.order.tolist())

    def where(self, keep: np.ndarray) -> RankedQueue:
        """The view of the records where the mask ``keep`` (aligned with
        ``records``) holds, in this queue's order and ranked from 1."""
        order = self.order[keep[self.order]]
        return RankedQueue(self.method, self.kappa, self.records, self.scores, order)


def minmax_norm(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale values to [0, 1]; a constant vector maps to all 0.5."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("minmax_norm requires at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("minmax_norm requires finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        return np.full(arr.shape, 0.5)
    return (arr - lo) / (hi - lo)


def method_scores(
    alerts: Sequence[PreparedAlert],
    method: Method,
    profile: RiskProfile = RiskProfile(),
) -> np.ndarray:
    """Score vector for one method over the alert batch."""
    if method is Method.SEVERITY_ONLY:
        return np.array([a.core for a in alerts], dtype=float)
    if method is Method.CONFIDENCE_ONLY:
        return np.array([a.p for a in alerts], dtype=float)
    if method is Method.WEIGHTED_SUM:
        cores = minmax_norm([a.core for a in alerts])
        probs = minmax_norm([a.p for a in alerts])
        return 0.5 * cores + 0.5 * probs
    if method is Method.RISK_AVERSE:
        return np.array(
            [ranking_index(a.fuzzy, profile.kappa) for a in alerts], dtype=float
        )
    raise ValidationError(f"unknown ranking method {method!r}")


def rank(
    alerts: Sequence[PreparedAlert],
    method: Method,
    profile: RiskProfile = RiskProfile(),
) -> RankedQueue:
    """Rank a batch of alerts; an empty batch yields an empty queue."""
    kappa = profile.kappa if method is Method.RISK_AVERSE else None
    if not alerts:
        return RankedQueue(method, kappa, alerts, np.empty(0), np.empty(0, dtype=np.intp))
    ids = [a.alert_id for a in alerts]
    if len(set(ids)) != len(ids):
        raise ValidationError("alert ids must be unique within a batch")
    scores = method_scores(alerts, method, profile)
    keys = (-scores).tolist()
    order = sorted(range(len(alerts)), key=lambda i: (keys[i], ids[i]))
    return RankedQueue(method, kappa, alerts, scores, np.array(order, dtype=np.intp))


def kappa_sweep(
    alerts: Sequence[PreparedAlert], kappas: Iterable[float]
) -> list[RankedQueue]:
    """One risk-averse queue per kappa value, in the given order."""
    return [rank(alerts, Method.RISK_AVERSE, RiskProfile(k)) for k in kappas]


QUEUE_HEADER = ["rank", "id", "method", "score", "c", "sigma", "h", "p", "attack_class", "label"]


def write_queue_csv(
    path: str | Path, queue: RankedQueue, header_comment: str | None = None
) -> None:
    scores = queue.scores.tolist()
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(QUEUE_HEADER)
        for position, i in enumerate(queue.order.tolist(), start=1):
            record = queue.records[i]
            writer.writerow(
                [
                    position,
                    record.alert_id,
                    queue.method.value,
                    f"{scores[i]:.10g}",
                    f"{record.core:.10g}",
                    f"{record.spread:.10g}",
                    f"{record.height:.10g}",
                    f"{record.p:.10g}",
                    record.attack_class,
                    "" if record.label is None else record.label,
                ]
            )
