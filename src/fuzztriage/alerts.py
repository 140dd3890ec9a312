"""Alert model: from raw detector alerts to ranked-ready fuzzy numbers.

An alert is a claim ("this flow is a DoS attack, probability 0.83"). This
module attaches a severity profile to the claimed class, derives the fuzzy
core (CVSS scaled by a contextual factor), the spread (core times the class
uncertainty factor), and the height (class reliability capped by the alert's
own probability), producing one subnormal Gaussian fuzzy number per alert.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .calibration import (
    CVSS_DEFAULT,
    NOVEL_CLASS_HEIGHT,
    UF_UNKNOWN_DEFAULT,
    instance_height,
)
from .errors import ParseError, ValidationError

#: Class name given to alerts whose raw label cannot be mapped.
UNKNOWN_CLASS = "unknown_novel"

#: Spread assigned when the core is exactly zero (benign false positives),
#: keeping the fuzzy number well-formed without inventing severity.
SPREAD_FLOOR = 1e-6

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_UINT64 = 1 << 64


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

CATEGORICAL_LEVELS = (0.2, 0.5, 0.8, 1.0)


class CfMode(str, Enum):
    """How contextual factors are derived when no criticality is given."""

    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Alert:
    """One detector alert: an id, a claimed class, and a probability."""

    alert_id: str
    attack_class: str
    p: float
    label: int | None = None
    criticality: Criticality | None = None

    def __post_init__(self) -> None:
        if not self.alert_id:
            raise ValidationError("alert_id must be non-empty")
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"p must lie in [0, 1], got {self.p!r}")
        if self.label not in (None, 0, 1):
            raise ValidationError(f"label must be 0, 1, or None, got {self.label!r}")


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


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (XOR then multiply, per byte)."""
    h = _FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV64_PRIME) % _UINT64
    return h


def cf_value(
    alert_id: str,
    attack_class: str,
    mode: CfMode = CfMode.CONTINUOUS,
    criticality: Criticality | None = None,
) -> float:
    """Derive the contextual factor of one alert, a number in [0.2, 1.0].

    An explicit criticality category wins and yields its fixed categorical
    value. Otherwise the factor is derived deterministically from the alert
    identity: the FNV-1a hash of ``"id|class"`` mapped into [0.2, 1.0), either
    kept continuous or snapped to the nearest categorical level.
    """
    if criticality is not None:
        return CRITICALITY_FACTORS[criticality]
    u = fnv1a64(f"{alert_id}|{attack_class}".encode()) / _UINT64
    value = 0.2 + 0.8 * u
    if mode is CfMode.CATEGORICAL:
        value = min(CATEGORICAL_LEVELS, key=lambda level: abs(level - value))
    return value


def check_uf_scale(uf_scale: float) -> None:
    """Reject a global uncertainty-factor scale that is not finite and > 0."""
    if not (math.isfinite(uf_scale) and uf_scale > 0.0):
        raise ValidationError(f"uf_scale must be positive and finite, got {uf_scale!r}")


# --- severity catalog ------------------------------------------------------

CATALOG_HEADER = ["class", "cvss", "uf"]
_DEFAULT_CATALOG_RESOURCE = "attack_class_profiles.csv"


def _parse_catalog(rows: Sequence[Sequence[str]], source: str) -> dict[str, AttackClassProfile]:
    catalog: dict[str, AttackClassProfile] = {}
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            name = row[0].strip()
            profile = AttackClassProfile(name, float(row[1]), float(row[2]))
        except (IndexError, ValueError, ValidationError) as exc:
            raise ParseError(f"{source}: bad catalog row {lineno}: {row!r} ({exc})") from exc
        if name in catalog:
            raise ParseError(f"{source}: duplicate catalog class {name!r} at row {lineno}")
        catalog[name] = profile
    return catalog


def load_catalog(path: str | Path | None = None) -> dict[str, AttackClassProfile]:
    """Load the class-severity catalog; ``None`` loads the bundled default."""
    if path is None:
        text = (
            resources.files("fuzztriage.data")
            .joinpath(_DEFAULT_CATALOG_RESOURCE)
            .read_text()
        )
        source = _DEFAULT_CATALOG_RESOURCE
        lines = text.splitlines()
    else:
        source = str(path)
        with open(path, newline="") as fh:
            lines = [line.rstrip("\n") for line in fh]
    lines = [line for line in lines if line and not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CATALOG_HEADER:
        raise ParseError(f"{source}: expected header {CATALOG_HEADER}, got {header}")
    return _parse_catalog(list(reader), source)


def resolve_profile(
    attack_class: str, catalog: Mapping[str, AttackClassProfile]
) -> AttackClassProfile:
    """Look up a class profile, falling back to defaults for unknown classes."""
    profile = catalog.get(attack_class)
    if profile is not None:
        return profile
    return AttackClassProfile(attack_class, CVSS_DEFAULT, UF_UNKNOWN_DEFAULT)


# --- alert CSV schema ------------------------------------------------------

ALERT_HEADER = ["id", "attack_class", "p", "label", "criticality"]


def load_alerts_csv(path: str | Path) -> list[Alert]:
    """Read alerts from the ``id,attack_class,p,label,criticality`` schema."""
    alerts: list[Alert] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader, None)
    if header != ALERT_HEADER:
        raise ParseError(f"{path}: expected header {ALERT_HEADER}, got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(ALERT_HEADER):
            raise ParseError(f"{path}: row {lineno} has {len(row)} fields, expected 5")
        alert_id, attack_class, p_text, label_text, crit_text = (f.strip() for f in row)
        try:
            p = float(p_text)
            label = int(label_text) if label_text else None
            criticality = Criticality(crit_text) if crit_text else None
            alert = Alert(alert_id, attack_class, p, label, criticality)
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"{path}: bad alert row {lineno}: {exc}") from exc
        if alert_id in seen:
            raise ParseError(f"{path}: duplicate alert id {alert_id!r} at row {lineno}")
        seen.add(alert_id)
        alerts.append(alert)
    return alerts


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


@dataclass(frozen=True)
class AlertBatch:
    """Prepared alerts as aligned columns, one entry per alert; ids are unique.

    ``p`` to ``height`` are read-only float64 arrays. Indexing and iteration
    build :class:`PreparedAlert` rows on demand.
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

    def __post_init__(self) -> None:
        n = len(self.ids)
        for name in _FLOAT_COLUMNS:
            column = np.array(getattr(self, name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        shapes = {(len(self.classes),), (len(self.labels),)}
        if shapes | {getattr(self, f).shape for f in _FLOAT_COLUMNS} != {(n,)}:
            raise ValidationError("alert batch columns must all have one entry per id")
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

    def with_p(self, p: Sequence[float] | np.ndarray) -> AlertBatch:
        """The same alerts under new probabilities: ``p`` and the capped
        ``height`` are recomputed, every other column is held fixed."""
        p = np.asarray(p, dtype=float)
        return replace(self, p=p, height=instance_height(self.h_class, p))


def assemble(
    alerts: Sequence[Alert],
    catalog: Mapping[str, AttackClassProfile],
    heights: Mapping[str, float],
    *,
    cf_mode: CfMode = CfMode.CONTINUOUS,
    uf_scale: float = 1.0,
) -> AlertBatch:
    """Resolve a sequence of alerts into one :class:`AlertBatch`.

    ``heights`` maps calibrated classes to their class heights; classes absent
    from it are treated as novel and given the neutral height 0.5 before the
    per-alert probability cap. ``uf_scale`` globally rescales the uncertainty
    factors used for spread construction. The core is the class CVSS scaled
    by the contextual factor and the spread is the core scaled by the
    uncertainty factor; a zero core gets the spread :data:`SPREAD_FLOOR`.
    """
    check_uf_scale(uf_scale)
    classes = tuple(a.attack_class for a in alerts)
    profiles = {c: resolve_profile(c, catalog) for c in dict.fromkeys(classes)}
    for c, profile in profiles.items():
        scaled = profile.uf * uf_scale
        if not (0.0 < scaled <= 0.5):
            raise ValidationError(f"scaled uf {scaled!r} for class {c!r} outside (0, 0.5]")
    ids = tuple(a.alert_id for a in alerts)
    labels = tuple(a.label for a in alerts)
    p = np.array([a.p for a in alerts], dtype=float)
    cf = np.array([cf_value(a.alert_id, a.attack_class, cf_mode, a.criticality) for a in alerts])
    uf = np.array([profiles[c].uf for c in classes]) * uf_scale
    h_class = np.array([heights.get(c, NOVEL_CLASS_HEIGHT) for c in classes], dtype=float)
    core = np.array([profiles[c].cvss for c in classes]) * cf
    spread = np.where(core * uf > 0.0, core * uf, SPREAD_FLOOR)
    height = instance_height(h_class, p)
    return AlertBatch(ids, classes, labels, p, cf, uf, h_class, core, spread, height)
