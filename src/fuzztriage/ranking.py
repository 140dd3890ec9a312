"""Alert queue construction: four ranking methods over an alert batch.

All methods sort descending by score with ties broken by ascending alert id,
so every ranking is a deterministic permutation of its input.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .alerts import AlertBatch
from .errors import ValidationError
from .sgfn import check_kappa, risk_averse_score
from .tables import write_artifact


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
    records: AlertBatch
    scores: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[RankedAlert]:
        ids, scores = self.records.ids, self.scores.tolist()
        for position, i in enumerate(self.order.tolist(), start=1):
            yield RankedAlert(position, ids[i], scores[i])

    def ids(self) -> tuple[str, ...]:
        ids = self.records.ids
        return tuple(ids[i] for i in self.order.tolist())

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
    alerts: AlertBatch,
    method: Method,
    profile: RiskProfile = RiskProfile(),
) -> np.ndarray:
    """Score vector for one method, aligned with the alert batch."""
    if method is Method.SEVERITY_ONLY:
        return alerts.core
    if method is Method.CONFIDENCE_ONLY:
        return alerts.p
    if method is Method.WEIGHTED_SUM:
        return 0.5 * minmax_norm(alerts.core) + 0.5 * minmax_norm(alerts.p)
    if method is Method.RISK_AVERSE:
        columns = (alerts.core.tolist(), alerts.spread.tolist(), alerts.height.tolist())
        return np.array(
            list(map(risk_averse_score, *columns, repeat(profile.kappa))), dtype=float
        )
    raise ValidationError(f"unknown ranking method {method!r}")


def rank(
    alerts: AlertBatch,
    method: Method,
    profile: RiskProfile = RiskProfile(),
) -> RankedQueue:
    """Rank a batch of alerts; an empty batch yields an empty queue."""
    kappa = profile.kappa if method is Method.RISK_AVERSE else None
    scores = method_scores(alerts, method, profile) if len(alerts) else np.empty(0)
    keys, ids = (-scores).tolist(), alerts.ids
    order = sorted(range(len(ids)), key=lambda i: (keys[i], ids[i]))
    return RankedQueue(method, kappa, alerts, scores, np.array(order, dtype=np.intp))


def kappa_sweep(alerts: AlertBatch, kappas: Iterable[float]) -> list[RankedQueue]:
    """One risk-averse queue per kappa value, in the given order."""
    return [rank(alerts, Method.RISK_AVERSE, RiskProfile(k)) for k in kappas]


QUEUE_HEADER = ["rank", "id", "method", "score", "c", "sigma", "h", "p", "attack_class", "label"]


def write_queue_csv(
    path: str | Path, queue: RankedQueue, header_comment: str | None = None
) -> None:
    batch = queue.records
    columns = (queue.scores, batch.core, batch.spread, batch.height, batch.p)
    scores, core, spread, height, p = (column.tolist() for column in columns)
    with write_artifact(path, header_comment) as fh:
        writer = csv.writer(fh)
        writer.writerow(QUEUE_HEADER)
        for position, i in enumerate(queue.order.tolist(), start=1):
            label = batch.labels[i]
            writer.writerow(
                [
                    position,
                    batch.ids[i],
                    queue.method.value,
                    f"{scores[i]:.10g}",
                    f"{core[i]:.10g}",
                    f"{spread[i]:.10g}",
                    f"{height[i]:.10g}",
                    f"{p[i]:.10g}",
                    batch.classes[i],
                    "" if label is None else label,
                ]
            )
