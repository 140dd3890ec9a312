"""Alert model: from raw detector alerts to ranked-ready fuzzy numbers.

An alert is a claim ("this flow is a DoS attack, probability 0.83"). This
module attaches a severity profile to the claimed class, derives the fuzzy
core (CVSS scaled by a contextual factor), the spread (core times the class
uncertainty factor), and the height (class reliability capped by the alert's
own probability), producing one subnormal Gaussian fuzzy number per alert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .calibration import (
    CVSS_DEFAULT,
    NOVEL_CLASS_HEIGHT,
    UF_UNKNOWN_DEFAULT,
    check_p,
    instance_height,
)
from .errors import ValidationError
from .sgfn import PENALTY_LOG_BASE
from .tables import Coded, read_keyed

#: Class name given to alerts whose raw label cannot be mapped.
UNKNOWN_CLASS = "unknown_novel"

#: Spread assigned when the core is exactly zero (benign false positives),
#: keeping the fuzzy number well-formed without inventing severity.
SPREAD_FLOOR = 1e-6

# numpy scalars, so that numpy 1.x's value-based casting keeps every step in uint64.
_FNV64_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV64_PRIME = np.uint64(0x100000001B3)


class Criticality(str, Enum):
    """Asset-criticality category attached to an alert by the operator."""

    CRITICAL = "critical"
    IMPORTANT = "important"
    NON_CRITICAL = "non_critical"
    ISOLATED = "isolated"


CRITICALITY_FACTORS: dict[Criticality, float] = {
    Criticality.CRITICAL: 1.0,
    Criticality.IMPORTANT: 0.8,
    Criticality.NON_CRITICAL: 0.5,
    Criticality.ISOLATED: 0.2,
}

CATEGORICAL_LEVELS = tuple(sorted(CRITICALITY_FACTORS.values()))


class CfMode(str, Enum):
    """How contextual factors are derived when no criticality is given."""

    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class AttackClassProfile:
    """Severity profile of one attack class: base CVSS and uncertainty factor."""

    class_name: str
    cvss: float
    uf: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.cvss <= 10.0):
            raise ValidationError(f"cvss must lie in [0, 10], got {self.cvss!r}")
        if not (0.0 < self.uf <= 0.5):
            raise ValidationError(f"uf must lie in (0, 0.5], got {self.uf!r}")


def fnv1a64_batch(keys: Sequence[bytes]) -> np.ndarray:
    """64-bit FNV-1a hash (XOR then multiply, per byte) of each key, as uint64.

    The keys form one zero-padded ``uint8`` matrix, and each row steps only
    over its first ``len(key)`` bytes, so trailing NULs in a key count.
    """
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    h = np.full(len(keys), _FNV64_OFFSET, dtype=np.uint64)
    width = int(lengths.max(initial=0))
    if width:
        matrix = np.array(keys, dtype=f"S{width}").view(np.uint8).reshape(len(keys), width)
        for j in range(width):
            h = np.where(lengths > j, (h ^ matrix[:, j]) * _FNV64_PRIME, h)
    return h


def contextual_factors(
    ids: Sequence[str], classes: Sequence[str],
    criticalities: Sequence[Criticality | None] | None, mode: CfMode,
) -> np.ndarray:
    """The contextual factor of each alert, a number in [0.2, 1.0].

    An explicit criticality category wins and yields its fixed categorical
    value. Otherwise the factor is derived deterministically from the alert
    identity: the FNV-1a hash of ``"id|class"`` mapped into [0.2, 1.0), either
    kept continuous or snapped to the nearest categorical level (the lower
    one on a tie). ``criticalities`` is ``None`` when no alert has one.
    """
    keys = [f"{i}|{c}".encode() for i, c in zip(ids, classes)]
    cf = 0.2 + 0.8 * (fnv1a64_batch(keys).astype(np.float64) / 2.0**64)
    if mode is CfMode.CATEGORICAL:
        levels = np.array(CATEGORICAL_LEVELS)
        cf = levels[np.argmin(np.abs(levels - cf[:, None]), axis=1)]
    if criticalities is not None:
        _check_columns(len(cf), (len(criticalities),))
        marked = [i for i, c in enumerate(criticalities) if c is not None]
        cf[marked] = [CRITICALITY_FACTORS[criticalities[i]] for i in marked]
    return cf


def check_uf_scale(uf_scale: float) -> None:
    """Reject a global uncertainty-factor scale that is not finite and > 0."""
    if not (math.isfinite(uf_scale) and uf_scale > 0.0):
        raise ValidationError(f"uf_scale must be positive and finite, got {uf_scale!r}")


def check_scaled_uf(ufs: Mapping[str, float], uf_scale: float, key: str = "uf_scale") -> None:
    """Reject a uf scale, set by ``key``, that puts the uf of a class of ``ufs``
    outside (0, 0.5]."""
    for c, uf in ufs.items():
        if not (0.0 < uf * uf_scale <= 0.5):
            raise ValidationError(f"{key} {uf_scale!r} puts the uf of class {c!r} at "
                                  f"{uf * uf_scale!r}, outside (0, 0.5]")


# --- severity catalog ------------------------------------------------------

CATALOG_HEADER = ["class", "cvss", "uf"]
_DEFAULT_CATALOG = Path(__file__).with_name("data") / "attack_class_profiles.csv"


def load_catalog(path: str | Path | None = None) -> dict[str, AttackClassProfile]:
    """Load the class-severity catalog; ``None`` loads the bundled default."""
    path = _DEFAULT_CATALOG if path is None else path
    return read_keyed(path, CATALOG_HEADER, "catalog class",
                      lambda f: (f[0], AttackClassProfile(f[0], float(f[1]), float(f[2]))))


def resolve_profile(
    attack_class: str, catalog: Mapping[str, AttackClassProfile]
) -> AttackClassProfile:
    """Look up a class profile, falling back to defaults for unknown classes."""
    profile = catalog.get(attack_class)
    return profile or AttackClassProfile(attack_class, CVSS_DEFAULT, UF_UNKNOWN_DEFAULT)


# --- alert CSV schema ------------------------------------------------------

ALERT_HEADER = ["id", "attack_class", "p", "label", "criticality"]


def load_alerts_csv(path: str | Path) -> dict[str, list]:
    """Read alerts from the ``id,attack_class,p,label,criticality`` schema
    into the columns of :func:`assemble`, keyed by its parameter names. Each
    row is checked by the rules of an assembled batch, so an error names it."""
    rows = read_keyed(path, ALERT_HEADER, "alert", _alert_row)
    names = ("classes", "p", "labels", "criticalities")
    columns = [list(column) for column in zip(*rows.values())] or [[] for _ in names]
    return {"ids": list(rows), **dict(zip(names, columns))}


def _alert_row(fields: list[str]) -> tuple[str, tuple]:
    alert_id, attack_class, p_text, label_text, crit_text = fields
    p = float(p_text)
    label = int(label_text) if label_text else None
    criticality = Criticality(crit_text) if crit_text else None
    _check_ids_and_labels([alert_id], [label])
    check_p(p)
    return alert_id, (attack_class, p, label, criticality)


# --- batch assembly --------------------------------------------------------


class PreparedAlert(NamedTuple):
    """One alert of a batch with every ranked-ready quantity resolved."""

    alert_id: str
    attack_class: str
    p: float
    cf: float
    uf: float
    h_class: float
    core: float
    spread: float
    height: float
    label: int | None = None


_FLOAT_COLUMNS = ("p", "cf", "uf", "h_class", "core", "spread", "height")


def _check_ids_and_labels(ids: Sequence[str], labels: Sequence[int | None]) -> None:
    """Reject an empty alert id, and a label other than 0, 1 or ``None``."""
    if "" in ids:
        raise ValidationError("alert_id must be non-empty")
    if not set(labels) <= {None, 0, 1}:
        label = next(y for y in labels if y not in (None, 0, 1))
        raise ValidationError(f"label must be 0, 1, or None, got {label!r}")


def _check_columns(n: int, *shapes: tuple[int, ...]) -> None:
    """Reject alert columns whose shapes are not one entry for each of ``n`` ids."""
    if set(shapes) != {(n,)}:
        raise ValidationError("alert batch columns must all have one entry per id")


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


@dataclass(frozen=True)
class AlertBatch:
    """Prepared alerts as aligned columns, one entry per alert; ids are
    unique and non-empty, and each label is 0, 1 or ``None``.

    ``p`` to ``height`` are read-only float64 arrays, and ``catalog`` is a
    read-only copy of the catalog the batch was assembled from. Indexing and
    iteration build :class:`PreparedAlert` rows on demand. ``log10_height``
    and ``id_rank`` are derived once per batch, when ranking first needs them.
    """

    ids: tuple[str, ...]
    classes: tuple[str, ...]
    labels: tuple[int | None, ...]
    p: np.ndarray
    cf: np.ndarray
    uf: np.ndarray
    h_class: np.ndarray
    core: np.ndarray
    spread: np.ndarray
    height: np.ndarray
    catalog: Mapping[str, AttackClassProfile]

    def __post_init__(self) -> None:
        n = len(self.ids)
        for name in _FLOAT_COLUMNS:
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
        object.__setattr__(self, "catalog", MappingProxyType(dict(self.catalog)))
        floats = (getattr(self, name).shape for name in _FLOAT_COLUMNS)
        _check_columns(n, (len(self.classes),), (len(self.labels),), *floats)
        _check_ids_and_labels(self.ids, self.labels)
        if len(set(self.ids)) != n:
            raise ValidationError("alert ids must be unique within a batch")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> PreparedAlert:
        floats = (getattr(self, name)[i].item() for name in _FLOAT_COLUMNS)
        return PreparedAlert(self.ids[i], self.classes[i], *floats, self.labels[i])

    def __iter__(self) -> Iterator[PreparedAlert]:
        floats = (getattr(self, name).tolist() for name in _FLOAT_COLUMNS)
        return map(PreparedAlert._make, zip(self.ids, self.classes, *floats, self.labels))

    @cached_property
    def log10_height(self) -> np.ndarray:
        """``log10(height)`` as ``math.log(h) / math.log(10)`` per height:
        numpy's ``log`` and ``log10`` differ from it in the last bit for some
        heights, which would change scores and order."""
        logs = np.array(list(map(math.log, self.height.tolist())), dtype=float)
        return _read_only(logs / math.log(PENALTY_LOG_BASE))

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each alert's position when the ids are sorted as Python strings;
        unlike a numpy ``str`` array, this order sees trailing NULs."""
        rank = np.empty(len(self.ids), dtype=np.intp)
        rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))
        return _read_only(rank)

    @cached_property
    def _class_index(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The distinct classes in order of first appearance, and the
        position of each alert's class among them."""
        coded = Coded.of(self.classes)
        return coded.names, coded.codes

    def _derive(self, **columns: np.ndarray) -> AlertBatch:
        """The same alerts with ``columns`` replaced. The ids are not checked
        again and what is derived from them is kept, as is ``log10_height``
        unless ``height`` is replaced."""
        batch = object.__new__(AlertBatch)
        batch.__dict__.update(self.__dict__)
        if "height" in columns:
            batch.__dict__.pop("log10_height", None)
        for name, column in columns.items():
            column = np.array(column, dtype=float)
            _check_columns(len(self), column.shape)
            batch.__dict__[name] = _read_only(column)
        return batch

    def with_p(self, p: Sequence[float] | np.ndarray) -> AlertBatch:
        """The same alerts under new probabilities: ``p`` and the capped
        ``height`` are recomputed, every other column is held fixed."""
        p = np.asarray(p, dtype=float)
        return self._derive(p=p, height=instance_height(self.h_class, p))

    def with_class_heights(self, heights: Mapping[str, float]) -> AlertBatch:
        """The same alerts under the class heights ``heights``, where a class
        absent from it gets :data:`~fuzztriage.calibration.NOVEL_CLASS_HEIGHT`:
        ``h_class`` and the capped ``height`` are recomputed."""
        classes, of_class = self._class_index
        class_heights = [heights.get(c, NOVEL_CLASS_HEIGHT) for c in classes]
        h_class = np.array(class_heights, dtype=float)[of_class]
        return self._derive(h_class=h_class, height=instance_height(h_class, self.p))

    def with_uf_scale(self, uf_scale: float) -> AlertBatch:
        """The same alerts under the uf scale ``uf_scale``: ``uf`` is the
        class's uf in the batch's catalog times the scale, which must lie in
        (0, 0.5], and ``spread`` follows."""
        check_uf_scale(uf_scale)
        classes, of_class = self._class_index
        class_uf = [resolve_profile(c, self.catalog).uf for c in classes]
        check_scaled_uf(dict(zip(classes, class_uf)), uf_scale)
        uf = (np.array(class_uf) * uf_scale)[of_class]
        spread = np.where(self.core * uf > 0.0, self.core * uf, SPREAD_FLOOR)
        return self._derive(uf=uf, spread=spread)


def assemble(
    ids: Sequence[str], classes: Sequence[str], p: Sequence[float] | np.ndarray,
    catalog: Mapping[str, AttackClassProfile], heights: Mapping[str, float], *,
    labels: Sequence[int | None] | None = None,
    criticalities: Sequence[Criticality | None] | None = None,
    cf_mode: CfMode = CfMode.CONTINUOUS, uf_scale: float = 1.0,
) -> AlertBatch:
    """Resolve alert columns into one :class:`AlertBatch`.

    Entry ``i`` of each column describes alert ``i``: its id, claimed class,
    probability, ground-truth label (``None``, the default: unknown) and
    asset criticality (``None``, the default: hashed from id and class).
    ``heights`` maps calibrated classes to their class heights. A class is
    looked up by name like any other, :data:`UNKNOWN_CLASS` included, so an
    unmapped label that the calibration saw has a calibrated height; only a
    class absent from ``heights`` gets the neutral height
    :data:`~fuzztriage.calibration.NOVEL_CLASS_HEIGHT` (0.5) before the
    per-alert probability cap. ``uf_scale`` globally rescales the uncertainty
    factors used for spread construction. The core is the class CVSS scaled
    by the contextual factor and the spread is the core scaled by the
    uncertainty factor; a zero core gets the spread :data:`SPREAD_FLOOR`.
    """
    ids, classes = tuple(ids), tuple(classes)
    labels = (None,) * len(ids) if labels is None else tuple(labels)
    cf = contextual_factors(ids, classes, criticalities, cf_mode)
    cvss = {c: resolve_profile(c, catalog).cvss for c in dict.fromkeys(classes)}
    core = np.array(list(map(cvss.__getitem__, classes)), dtype=float) * cf
    unset = np.zeros(len(ids))  # columns the two transforms fill in
    batch = AlertBatch(ids, classes, labels, p, cf, unset, unset, core, unset, unset, catalog)
    return batch.with_uf_scale(uf_scale).with_class_heights(heights)
