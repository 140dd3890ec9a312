"""Detector reliability calibration.

Turns per-class detection tallies (true positives, false positives, false
negatives) into fuzzy heights. Class-level height is a smoothed, clipped F1
score; instance-level height additionally caps at the alert's own calibrated
probability, so one alert is never more credible than either its class record
or its own score.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .tables import write_artifact

#: Lower bound applied to instance heights so the log penalty stays finite
#: even for probability-zero alerts.
HEIGHT_FLOOR = 1e-6

#: Class height used for attack classes never seen during calibration.
NOVEL_CLASS_HEIGHT = 0.5

# Profile substituted for attack classes missing from the catalog.
CVSS_DEFAULT = 5.0
UF_UNKNOWN_DEFAULT = 0.35


@dataclass(frozen=True)
class ClassMetrics:
    """Detection tallies and derived scores for one attack class."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class HeightParams:
    """Shape of the F1-to-height mapping.

    ``alpha`` controls how strongly F1 moves the height away from the neutral
    0.5; ``h_min`` and ``h_max`` clip the result so no class is ever treated
    as perfectly reliable or perfectly worthless.
    """

    alpha: float = 0.9
    h_min: float = 0.05
    h_max: float = 0.95

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not self.h_max <= 1.0:
            raise ValidationError(f"h_max must be <= 1, got {self.h_max!r}")
        if not (0.0 < self.h_min < self.h_max):
            raise ValidationError(f"h_min must be in (0, h_max={self.h_max!r}), got {self.h_min!r}")


def class_metrics(tp: int, fp: int, fn: int) -> ClassMetrics:
    """Compute precision, recall, and F1 from raw counts.

    Zero denominators yield 0.0 rather than an error: a class that was never
    predicted (or never present) has no demonstrated reliability.
    """
    for name, value in (("tp", tp), ("fp", fp), ("fn", fn)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom else 0.0
    return ClassMetrics(tp, fp, fn, precision, recall, f1)


def class_height(f1: float, params: HeightParams = HeightParams()) -> float:
    """Map an F1 score in [0, 1] to a class height.

    ``0.5 + alpha * (f1 - 0.5)`` clipped to ``[h_min, h_max]``: F1 of 0.5 is
    neutral, better detection raises the height, worse lowers it, and alpha
    shrinks the influence toward neutrality.
    """
    if not (0.0 <= f1 <= 1.0):
        raise ValidationError(f"f1 must lie in [0, 1], got {f1!r}")
    raw = 0.5 + params.alpha * (f1 - 0.5)
    return min(max(raw, params.h_min), params.h_max)


def check_p(p: float | np.ndarray) -> None:
    """Reject a probability, or an entry of a float array, outside [0, 1]:
    the one wording of that rule. A row reader's float skips numpy."""
    ok = (0.0 <= p) & (p <= 1.0)
    if ok is not True and not np.all(ok):
        bad = np.ravel(p)[~np.ravel(ok)].tolist()[0]
        raise ValidationError(f"p must lie in [0, 1], got {bad!r}")


def instance_height(
    h_class: float | np.ndarray, p: float | np.ndarray
) -> float | np.ndarray:
    """Per-alert height: ``min(h_class, p)`` floored at :data:`HEIGHT_FLOOR`;
    elementwise for arrays."""
    h_class, p = np.asarray(h_class, dtype=float), np.asarray(p, dtype=float)
    h_ok = (0.0 < h_class) & (h_class <= 1.0)
    if not h_ok.all():
        raise ValidationError(f"h_class must lie in (0, 1], got {h_class[~h_ok].tolist()[0]!r}")
    check_p(p)
    return np.maximum(np.minimum(h_class, p), HEIGHT_FLOOR)


@dataclass(frozen=True)
class CalibrationRow:
    """One line of the calibration table: counts, scores, and class height."""

    class_name: str
    metrics: ClassMetrics
    h_class: float


def per_class_counts(
    attack_classes: Sequence[str],
    labels: Sequence[int],
    predictions: Sequence[int],
) -> dict[str, tuple[int, int, int]]:
    """Tally (tp, fp, fn) per claimed attack class from a binary alert stream.

    Each alert claims a class; label says whether it was a real attack and
    prediction whether the detector flagged it. False positives therefore
    count against the class the alert claimed.
    """
    if not (len(attack_classes) == len(labels) == len(predictions)):
        raise ValidationError("attack_classes, labels, predictions must have equal length")
    counts: dict[str, list[int]] = {}
    for cls, y, yhat in zip(attack_classes, labels, predictions):
        tally = counts.setdefault(cls, [0, 0, 0])
        if y == 1 and yhat == 1:
            tally[0] += 1
        elif y == 0 and yhat == 1:
            tally[1] += 1
        elif y == 1 and yhat == 0:
            tally[2] += 1
    return {cls: (t[0], t[1], t[2]) for cls, t in counts.items()}


def build_height_table(
    counts: Mapping[str, tuple[int, int, int]],
    params: HeightParams = HeightParams(),
) -> dict[str, CalibrationRow]:
    """Build calibration rows (metrics plus class height) from per-class counts."""
    table: dict[str, CalibrationRow] = {}
    for cls in sorted(counts):
        tp, fp, fn = counts[cls]
        metrics = class_metrics(tp, fp, fn)
        table[cls] = CalibrationRow(cls, metrics, class_height(metrics.f1, params))
    return table


def heights_from_f1(
    f1_by_class: Mapping[str, float],
    params: HeightParams = HeightParams(),
) -> dict[str, float]:
    """Recompute class heights from stored F1 scores under new parameters."""
    return {cls: class_height(f1, params) for cls, f1 in f1_by_class.items()}


CALIBRATION_HEADER = ["class", "tp", "fp", "fn", "precision", "recall", "f1", "h_class"]


def write_calibration_csv(
    path: str | Path,
    table: Mapping[str, CalibrationRow],
    header_comment: str | None = None,
) -> None:
    with write_artifact(path, header_comment) as fh:
        writer = csv.writer(fh)
        writer.writerow(CALIBRATION_HEADER)
        for cls in sorted(table):
            row = table[cls]
            m = row.metrics
            writer.writerow(
                [cls, m.tp, m.fp, m.fn, f"{m.precision:.10g}", f"{m.recall:.10g}",
                 f"{m.f1:.10g}", f"{row.h_class:.10g}"]
            )
