"""Alert queue construction: four ranking methods over prepared alerts.

All methods sort descending by score with ties broken by ascending alert id,
so every ranking is a deterministic permutation of its input.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class ScoreExplanation:
    """Inputs that produced a score, kept for audit output."""

    core: float
    spread: float
    height: float
    p: float
    cf: float
    uf: float
    kappa: float | None


@dataclass(frozen=True)
class RankedAlert:
    alert_id: str
    method: Method
    score: float
    rank: int
    explanation: ScoreExplanation


@dataclass(frozen=True)
class RankedQueue:
    method: Method
    kappa: float | None
    alerts: tuple[RankedAlert, ...]

    def __len__(self) -> int:
        return len(self.alerts)

    def __iter__(self) -> Iterator[RankedAlert]:
        return iter(self.alerts)

    def ids(self) -> tuple[str, ...]:
        return tuple(a.alert_id for a in self.alerts)


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
        return RankedQueue(method, kappa, ())
    ids = [a.alert_id for a in alerts]
    if len(set(ids)) != len(ids):
        raise ValidationError("alert ids must be unique within a batch")
    scores = method_scores(alerts, method, profile)
    order = sorted(range(len(alerts)), key=lambda i: (-scores[i], ids[i]))
    ranked = tuple(
        RankedAlert(
            alert_id=alerts[i].alert_id,
            method=method,
            score=float(scores[i]),
            rank=position,
            explanation=ScoreExplanation(
                core=alerts[i].core,
                spread=alerts[i].spread,
                height=alerts[i].height,
                p=alerts[i].p,
                cf=alerts[i].cf,
                uf=alerts[i].uf,
                kappa=kappa,
            ),
        )
        for position, i in enumerate(order, start=1)
    )
    return RankedQueue(method, kappa, ranked)


def kappa_sweep(
    alerts: Sequence[PreparedAlert], kappas: Iterable[float]
) -> list[RankedQueue]:
    """One risk-averse queue per kappa value, in the given order."""
    return [rank(alerts, Method.RISK_AVERSE, RiskProfile(k)) for k in kappas]


QUEUE_HEADER = ["rank", "id", "method", "score", "c", "sigma", "h", "p", "attack_class", "label"]


def write_queue_csv(
    path: str | Path,
    queue: RankedQueue,
    records: Sequence[PreparedAlert],
    header_comment: str | None = None,
) -> None:
    by_id = {r.alert_id: r for r in records}
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(QUEUE_HEADER)
        for entry in queue:
            record = by_id[entry.alert_id]
            writer.writerow(
                [
                    entry.rank,
                    entry.alert_id,
                    entry.method.value,
                    f"{entry.score:.10g}",
                    f"{record.core:.10g}",
                    f"{record.spread:.10g}",
                    f"{record.height:.10g}",
                    f"{record.p:.10g}",
                    record.attack_class,
                    "" if record.label is None else record.label,
                ]
            )
