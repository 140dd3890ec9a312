"""Queue quality evaluation with graded relevance.

Relevance of a true attack is its fuzzy core discounted by the class
uncertainty factor, ``core * (1 - uf)``; benign alerts have relevance zero.
Queues are scored with NDCG over exponential gains. On top of that sit the
analyst-facing views (detector-predicted queue, confidence bands), a paired
bootstrap for method comparisons, miscalibration scenarios, and a parameter
sensitivity sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .alerts import AlertBatch
from .calibration import HeightParams, check_p, heights_from_f1
from .detector import ATTACK_THRESHOLD
from .errors import EvaluationError, ValidationError
from .ranking import Method, RankedQueue, RiskProfile, rank


def relevance(batch: AlertBatch) -> np.ndarray:
    """Graded relevance, aligned with the batch: ``core * (1 - uf)`` for
    true attacks, else 0. Labels are read by code."""
    y = np.array([-1 if y is None else y for y in batch.labels.names], np.intp)[batch.labels.codes]
    if (y < 0).any():
        raise EvaluationError(f"alert {batch.ids[np.argmax(y < 0)]!r} has no ground-truth label")
    return np.where(y == 1, batch.core * (1.0 - batch.uf), 0.0)


def dcg_at_k(rels: Sequence[float], k: int) -> float:
    """Discounted cumulative gain over the first ``k`` positions."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    head = np.asarray(rels, dtype=float)[:k]
    if head.size == 0:
        return 0.0
    gains = np.exp2(head) - 1.0
    discounts = np.log2(np.arange(2, head.size + 2, dtype=float))
    return float(np.sum(gains / discounts))


def ndcg_at_k(rels: Sequence[float], k: int) -> float:
    """Normalized DCG; a queue with no relevant items scores 0.0."""
    ideal = dcg_at_k(np.sort(np.asarray(rels, dtype=float))[::-1], k)
    if ideal == 0.0:
        return 0.0
    return dcg_at_k(rels, k) / ideal


def queue_relevances(queue: RankedQueue, rel: np.ndarray) -> np.ndarray:
    """Relevance of each queue position, best first; ``rel`` is aligned with
    the queue's batch (see :func:`relevance`)."""
    if len(rel) != len(queue.records):
        raise EvaluationError(
            f"{len(rel)} relevance values for a batch of {len(queue.records)} alerts"
        )
    return np.asarray(rel, dtype=float)[queue.order]


def ndcg_of_queue(queue: RankedQueue, rel: np.ndarray, k: int) -> float:
    return ndcg_at_k(queue_relevances(queue, rel), k)


def predicted_queue(queue: RankedQueue) -> RankedQueue:
    """Restrict a queue to detector-predicted attacks (p >= ATTACK_THRESHOLD),
    preserving order and renumbering ranks."""
    return queue.where(queue.records.p >= ATTACK_THRESHOLD)


# --- confidence bands ------------------------------------------------------


@dataclass(frozen=True)
class Band:
    """Probability band [lo, hi), right-closed when ``closed`` is set."""

    lo: float
    hi: float
    closed: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValidationError(f"bands need 0 <= lo < hi <= 1, got {self.lo!r}-{self.hi!r}")

    def contains(self, p: float | np.ndarray) -> bool | np.ndarray:
        """Whether p lies in the band; elementwise for an array."""
        return (self.lo <= p) & ((p <= self.hi) if self.closed else (p < self.hi))


@dataclass(frozen=True)
class BandResult:
    band: Band
    count: int
    ndcg: float | None


def band_eval(
    queue: RankedQueue,
    rel: np.ndarray,
    bands: Sequence[Band],
    k: int = 100,
) -> list[BandResult]:
    """NDCG within each confidence band.

    The restriction keeps the method's own ordering (the band view is a
    subsequence of the queue). Empty bands report no score rather than zero.
    """
    results = []
    for band in bands:
        view = queue.where(band.contains(queue.records.p))
        ndcg = ndcg_of_queue(view, rel, k) if len(view) else None
        results.append(BandResult(band, len(view), ndcg))
    return results


# --- paired bootstrap ------------------------------------------------------

BOOTSTRAP_BLOCK = 32768  # values per scoring buffer: 256 KiB of float64, within L2


@dataclass(frozen=True)
class BootstrapResult:
    delta: float
    ci_low: float
    ci_high: float
    p_value: float
    resamples: int
    k: int


def paired_bootstrap(
    baseline: RankedQueue,
    queues: Mapping[str, RankedQueue],
    rel: np.ndarray,
    *,
    k: int,
    resamples: int,
    seed: int,
) -> dict[str, BootstrapResult]:
    """Paired bootstrap over rank positions for NDCG@k of each of ``queues``
    against ``baseline``, keyed as ``queues``.

    Each replicate draws k positions in 1..k with replacement and applies the
    *same* draw to both queues' top-k relevance sequences. The drawn positions
    are kept in rank order, so each replicate preserves the queue's own
    ordering over the resampled multiset; its ideal is that multiset sorted
    descending. Delta is the mean of the replicate differences (queue minus
    baseline), the CI is the percentile interval, and the two-sided p-value
    comes from the shifted (null-centered) distribution, floored at
    1/resamples. One draw and the baseline's replicates serve every queue,
    so each result equals that of a separate draw with the same seed. The
    replicates are scored :data:`BOOTSTRAP_BLOCK` values at a time; every
    step works on one replicate's row, so the blocks change no bit.
    ``k`` or ``resamples`` below 1 is a :class:`ValidationError`. Every
    queue must rank a batch with the baseline's ids in the same row order
    (``rel`` is aligned with those rows) and hold the baseline's rows, or
    the call is an :class:`EvaluationError`.
    """
    if resamples < 1:
        raise ValidationError(f"resamples must be >= 1, got {resamples!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    if not queues:
        return {}
    ids = baseline.records.ids
    member = np.zeros(len(ids), dtype=bool)
    member[baseline.order] = True
    for name, queue in queues.items():
        if queue.records.ids != ids or len(queue) != len(baseline) or not member[queue.order].all():
            raise EvaluationError(
                f"paired bootstrap requires queues over the same alert universe; "
                f"queue {name!r} differs from the baseline"
            )
    k_eff = min(k, len(baseline))
    if k_eff < 1:
        raise EvaluationError("paired bootstrap requires non-empty queues")
    discounts = np.log2(np.arange(2, k_eff + 2, dtype=float))

    rng = np.random.default_rng(seed)
    # Sorting each draw keeps the queue's own rank order within the resample.
    idx = rng.integers(0, k_eff, size=(resamples, k_eff))
    idx.sort(axis=1)
    # One pair of buffers serves every block of replicates of every queue:
    # the drawn gains and their discounted values.
    rows = max(1, BOOTSTRAP_BLOCK // k_eff)
    drawn = np.empty((min(rows, resamples), k_eff))
    scaled = np.empty_like(drawn)

    def replicate_ndcg(queue: RankedQueue) -> np.ndarray:
        gains = np.exp2(queue_relevances(queue, rel)[:k_eff]) - 1.0
        out = np.zeros(resamples)
        for start in range(0, resamples, rows):
            block = idx[start:start + rows]
            d, s = drawn[:len(block)], scaled[:len(block)]
            np.take(gains, block, out=d, mode="clip")
            dcg = np.divide(d, discounts, out=s).sum(axis=1)
            # The ideal orders each resample descending. Sorting the negated gains
            # ascending does that, and as negation commutes exactly with division
            # and rounding, the negated sums have the bits of the descending ones.
            np.negative(d, out=d)
            d.sort(axis=1)
            ideal = -np.divide(d, discounts, out=s).sum(axis=1)
            nonzero = ideal > 0.0
            out[start:start + len(block)][nonzero] = dcg[nonzero] / ideal[nonzero]
        return out

    base = replicate_ndcg(baseline)
    results = {}
    for name, queue in queues.items():
        deltas = replicate_ndcg(queue) - base
        delta = float(deltas.mean())
        ci_low, ci_high = _percentiles(deltas, (2.5, 97.5))
        p_value = float(np.mean(np.abs(deltas - delta) >= abs(delta)))
        results[name] = BootstrapResult(
            delta, ci_low, ci_high, max(p_value, 1.0 / resamples), resamples, k_eff
        )
    return results


def _percentiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """``float(np.percentile(values, q))`` for each ``q``, bit for bit, from
    one sort of the non-empty, NaN-free ``values``. (Where ``values`` holds
    both 0.0 and -0.0 only the sign of a zero result may differ; bootstrap
    deltas, differences of non-negative scores, never hold -0.0.)

    This is numpy's default "linear" method as numpy writes it: the virtual
    index ``v = (n - 1) * (q / 100)`` falls between ``lo = floor(v)`` and
    ``lo + 1``, both the last element once ``v >= n - 1`` (when numpy's
    weight is ``v + 1``), and its ``_lerp`` runs from the nearer end.
    """
    ordered = np.sort(values).tolist()
    n = len(ordered)
    out = []
    for q in qs:
        v = (n - 1) * (q / 100)
        lo = hi = -1
        if v < n - 1:
            lo = math.floor(v)
            hi = lo + 1
        g = v - lo
        a, b = ordered[lo], ordered[hi]
        diff = b - a
        out.append(b - diff * (1 - g) if g >= 0.5 else a + diff * g)
    return out


# --- miscalibration scenarios ---------------------------------------------


class ScenarioKind(str, Enum):
    OVERCONFIDENT = "overconfident"
    UNDERCONFIDENT = "underconfident"
    NOISE = "noise"


_SCENARIO_SCALES = {ScenarioKind.OVERCONFIDENT: 1.15, ScenarioKind.UNDERCONFIDENT: 0.85}


def check_noise_sd(noise_sd: float) -> None:
    """The scenario noise scale must be finite and positive."""
    if not (math.isfinite(noise_sd) and noise_sd > 0.0):
        raise ValidationError(f"noise_sd must be finite and > 0, got {noise_sd!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    noise_sd: float
    seed: int

    def __post_init__(self) -> None:
        check_noise_sd(self.noise_sd)


def perturb(p: Sequence[float] | np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """Perturb a probability vector according to a miscalibration scenario.

    Overconfident multiplies by 1.15 and caps at 1; underconfident
    multiplies by 0.85; noise adds seeded Gaussian noise. All results are
    clipped to [0, 1].
    """
    arr = np.asarray(p, dtype=float)
    check_p(arr)
    if spec.kind is ScenarioKind.NOISE:
        rng = np.random.default_rng(spec.seed)
        out = arr + rng.normal(0.0, spec.noise_sd, size=arr.shape)
    else:
        out = arr * _SCENARIO_SCALES[spec.kind]
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: ScenarioKind
    method: Method
    k: int
    ndcg_before: float
    ndcg_after: float

    @property
    def change_pct(self) -> float | None:
        if self.ndcg_before == 0.0:
            return None
        return 100.0 * (self.ndcg_after - self.ndcg_before) / self.ndcg_before


def scenario_eval(
    queues: Sequence[RankedQueue],
    rel: np.ndarray,
    scenarios: Sequence[ScenarioSpec],
    *,
    k: int = 100,
) -> list[ScenarioResult]:
    """NDCG@k of each full queue of one batch before and after each scenario;
    "after" ranks ``batch.with_p(perturb(batch.p, spec))`` with the queue's
    method and κ. No queue, a view or a queue of another batch is an EvaluationError."""
    batch = queues[0].records if queues else None
    if batch is None or any(q.records is not batch or len(q) != len(batch) for q in queues):
        raise EvaluationError("scenario_eval requires full queues ranked from one alert batch")
    before = [ndcg_of_queue(q, rel, k) for q in queues]
    results = []
    for spec in scenarios:
        shifted = batch.with_p(perturb(batch.p, spec))
        for queue, ndcg in zip(queues, before):
            profile = RiskProfile() if queue.kappa is None else RiskProfile(queue.kappa)
            after = ndcg_of_queue(rank(shifted, queue.method, profile), rel, k)
            results.append(ScenarioResult(spec.kind, queue.method, k, ndcg, after))
    return results


# --- sensitivity sweep -----------------------------------------------------

DEFAULT_SWEEP_GRID: dict[str, tuple[float, ...]] = {
    "alpha": (0.5, 0.7, 0.9, 0.95),
    "h_min": (0.01, 0.05, 0.1),
    "h_max": (0.9, 0.95, 0.99),
    "uf_scale": (0.8, 1.0, 1.2),
    "kappa": (0.0, 0.5, 1.0, 1.5, 2.0),
}

SWEEP_CUTOFFS = (10, 100)


@dataclass(frozen=True)
class SweepPoint:
    parameter: str
    value: float
    ndcg_by_cutoff: tuple[float, ...]


@dataclass(frozen=True)
class SweepReport:
    cutoffs: tuple[int, ...]
    points: tuple[SweepPoint, ...]
    spread_by_cutoff: tuple[float, ...]
    parameter_spread: dict[str, tuple[float, ...]]


def sensitivity_sweep(
    records: AlertBatch,
    f1_by_class: Mapping[str, float],
    grid: Mapping[str, Sequence[float]] | None = None,
    *,
    defaults: HeightParams = HeightParams(),
    kappa: float = 1.0,
    cutoffs: Sequence[int] = SWEEP_CUTOFFS,
) -> SweepReport:
    """One-at-a-time sensitivity sweep of the risk-averse predicted queue.

    ``records`` must carry the class heights ``heights_from_f1(f1_by_class,
    defaults)``, and its uf scale is the default one. Each point varies one
    parameter: a κ point ranks ``records`` as it is, a height point
    ``records.with_class_heights(...)`` and a ``uf_scale`` point
    ``records.with_uf_scale(value)``, which re-derives ``uf`` from the
    batch's own catalog. Relevance comes from ``records``, one fixed target
    for every point. Records of other class heights, an empty grid, a
    parameter with no values and empty ``cutoffs`` are each a
    :class:`ValidationError`.
    """
    grid = DEFAULT_SWEEP_GRID if grid is None else grid
    for what, given in (("grid", grid), ("cutoffs", cutoffs)):
        if len(given) == 0:
            raise ValidationError(f"sweep {what} must not be empty")
    for name, values in grid.items():
        if name not in DEFAULT_SWEEP_GRID:
            raise ValidationError(f"unknown sweep parameter {name!r}")
        if len(values) == 0:
            raise ValidationError(f"sweep parameter {name!r} has no values")
    heights = heights_from_f1(f1_by_class, defaults)
    if not np.array_equal(records.h_class, records.with_class_heights(heights).h_class):
        raise ValidationError("sweep records must carry the heights of f1_by_class at defaults")

    rel = relevance(records)
    points: list[SweepPoint] = []
    for name, values in grid.items():
        for value in map(float, values):
            batch, kap = records, kappa
            if name == "kappa":
                kap = value
            elif name == "uf_scale":
                batch = records.with_uf_scale(value)
            else:
                params = replace(defaults, **{name: value})
                batch = records.with_class_heights(heights_from_f1(f1_by_class, params))
            queue = predicted_queue(rank(batch, Method.RISK_AVERSE, RiskProfile(kap)))
            if len(queue) == 0:
                raise EvaluationError("sensitivity sweep: predicted queue is empty")
            ndcgs = tuple(ndcg_of_queue(queue, rel, k) for k in cutoffs)
            points.append(SweepPoint(name, value, ndcgs))
    parameter_spread = {name: _spread([p for p in points if p.parameter == name]) for name in grid}
    return SweepReport(tuple(cutoffs), tuple(points), _spread(points), parameter_spread)


def _spread(points: Sequence[SweepPoint]) -> tuple[float, ...]:
    """Max minus min NDCG over the points, per cutoff."""
    ndcg = np.array([p.ndcg_by_cutoff for p in points])
    return tuple((ndcg.max(axis=0) - ndcg.min(axis=0)).tolist())
