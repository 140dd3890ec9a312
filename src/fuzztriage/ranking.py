"""Alert queue construction: four ranking methods over an alert batch.

All methods sort descending by score with ties broken by ascending alert id,
so every ranking is a deterministic permutation of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .alerts import AlertBatch
from .errors import ValidationError
from .sgfn import check_kappa
from .tables import Coded, csv_row, g_cells, quoted_cells, text_cells, write_rows


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
        # the operation order of sgfn.ranking_index, so the bits are its bits
        return alerts.core + profile.kappa * alerts.spread * alerts.log10_height
    raise ValidationError(f"unknown ranking method {method!r}")


def rank(
    alerts: AlertBatch,
    method: Method,
    profile: RiskProfile = RiskProfile(),
) -> RankedQueue:
    """Rank a batch of alerts; an empty batch yields an empty queue."""
    kappa = profile.kappa if method is Method.RISK_AVERSE else None
    scores = method_scores(alerts, method, profile) if len(alerts) else np.empty(0)
    order = np.lexsort((alerts.id_rank, -scores))
    return RankedQueue(method, kappa, alerts, scores, order)


def risk_averse_queue_name(kappa: float) -> str:
    """Name of the risk-averse queue at ``kappa``: kappas equal to 12
    significant digits share one name, and so one queue file."""
    return f"{Method.RISK_AVERSE.value}_k{kappa:.12g}"


QUEUE_HEADER = ["rank", "id", "method", "score", "c", "sigma", "h", "p", "attack_class", "label"]


def write_queue_csvs(
    files: Mapping[str | Path, RankedQueue], header_comment: str | None = None
) -> None:
    """Write each queue to its path as ``csv.writer`` would, floats as
    ``f"{x:.10g}"``. The queues must be ranked from one alert batch, whose
    cells are built once for all of them.

    Raises:
        ValidationError: if the queues are not ranked from one batch.
    """
    if not files:
        return
    batch = next(iter(files.values())).records
    if any(queue.records is not batch for queue in files.values()):
        raise ValidationError("queues written together must be ranked from one alert batch")
    ids = batch.ids
    if csv_row(ids) != ",".join(ids) + "\r\n":
        ids = [csv_row((alert_id, ""))[:-3] for alert_id in ids]  # drop ",\r\n"
    ids = text_cells(ids)
    floats = g_cells(np.stack([batch.core, batch.spread, batch.height, batch.p], axis=1), 10)
    tails, which = quoted_cells([Coded.of(batch.classes), Coded.of(batch.labels)])
    positions = text_cells(list(map(str, range(1, len(batch) + 1))))
    for path, queue in files.items():
        order, method = queue.order, (text_cells([queue.method.value]), np.zeros(len(queue), np.intp))
        columns = [(positions, np.arange(len(queue))), (ids, order), method,
                   ((queue.scores[:, None], 10), order), (floats, order), (tails, which[order])]
        write_rows(path, header_comment, QUEUE_HEADER, columns)
