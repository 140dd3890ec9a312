"""Flow dataset loading, class mapping, normalization, splitting, synthesis.

Handles CIC-IDS2017-shaped CSVs (one header row, numeric feature columns, a
raw attack-type label column, optionally a weekday column) and generates a
desk-scale synthetic benchmark with the same schema. Raw attack types map
onto eight attack classes plus benign; unmapped labels become a flagged
"unknown_novel" class rather than an error.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .alerts import UNKNOWN_CLASS
from .errors import ParseError, ValidationError
from .tables import (
    Coded, quoted_cells, read_keyed, read_table, table_lines, table_rows, write_rows,
)

logger = logging.getLogger(__name__)

BENIGN_CLASS = "benign"

LABEL_COLUMN_DEFAULT = "Label"
DAY_COLUMN_DEFAULT = "Day"

WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday")
TRAIN_DAYS = ("Monday", "Tuesday")
VALIDATION_DAYS = ("Wednesday",)
TEST_DAYS = ("Thursday", "Friday")


@dataclass(frozen=True)
class FlowDataset:
    """Immutable rectangular flow dataset.

    ``labels`` holds raw attack-type strings as they appear in the source
    file; class mapping is a separate step. ``days`` is optional weekday
    tagging used by the day-based split. Both are held as :class:`Coded`
    columns; a sequence of strings given for either is coded.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: Coded
    days: Coded | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-dimensional, got shape {feats.shape}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", Coded.of(self.labels))
        if self.days is not None:
            object.__setattr__(self, "days", Coded.of(self.days))
        if len(self.feature_names) != feats.shape[1]:
            raise ValidationError(
                f"{len(self.feature_names)} feature names for {feats.shape[1]} columns"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError("feature names must be unique")
        if len(self.labels) != feats.shape[0]:
            raise ValidationError(f"{len(self.labels)} labels for {feats.shape[0]} rows")
        if self.days is not None and len(self.days) != feats.shape[0]:
            raise ValidationError(f"{len(self.days)} day tags for {feats.shape[0]} rows")

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class LoadReport:
    rows: np.ndarray  # each kept flow's index among the data rows, dropped ones counted
    rows_dropped: int

    @property
    def rows_kept(self) -> int:
        return len(self.rows)


def load_csv(
    path: str | Path,
    *,
    label_column: str = LABEL_COLUMN_DEFAULT,
    day_column: str | None = DAY_COLUMN_DEFAULT,
) -> tuple[FlowDataset, LoadReport]:
    """Load a flow CSV, dropping rows with non-numeric or non-finite features.

    The day column is optional even when named: if the header lacks it the
    dataset simply carries no day tags. A missing label column, a repeated
    column name or a file with no data rows is an error. The file follows
    the table rules of :mod:`fuzztriage.tables`, and a file that breaks them
    is reread by :func:`~fuzztriage.tables.read_table`, which words the error.
    """
    try:
        header, lines = table_lines(path)
        if not header:
            raise ParseError(f"{path}: empty file")
        repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
        if repeated is not None:
            raise ParseError(f"{path}: duplicate column {repeated!r}")
        if label_column not in header:
            raise ParseError(f"{path}: missing label column {label_column!r}")
        label = header.index(label_column)
        day = header.index(day_column) if day_column and day_column in header else None
        features = [i for i in range(len(header)) if i != label and i != day]
        if not features:
            raise ParseError(f"{path}: no feature columns")
        flows = _FlowRows(features, label, day)
        for block in iter(lambda: list(islice(lines, LINES_PER_BLOCK)), []):
            flows.read(block, lines)
    except (_RaggedRow, UnicodeDecodeError, csv.Error):
        for _ in read_table(path)[1]:  # raises the file's error, worded as every table's
            pass
        raise
    if not flows.rows:
        raise ParseError(f"{path}: no data rows")
    kept = np.concatenate(flows.kept)
    dropped = flows.rows - len(kept)
    if not len(kept):
        n, row = next(read_table(path)[1])
        name, text = next((header[i], row[i]) for i in features if not _is_finite(row[i]))
        raise ParseError(
            f"{path}: all {dropped} data rows were dropped "
            f"(row {n}: {name!r} is {text!r}, not a finite number)"
        )
    dataset = FlowDataset(
        np.frombuffer(flows.values, dtype=float).reshape(len(kept), len(features)),
        tuple(header[i] for i in features),
        flows.labels.coded().map(str.strip).take(kept),
        flows.days.coded().map(str.strip).take(kept) if day is not None else None,
    )
    return dataset, LoadReport(kept, dropped)


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


LINES_PER_BLOCK = 256  # file lines read, checked and parsed at a time
# A block holding one of these, or a line that ends in a bare CR (numpy is
# given LF and CRLF lines only), is read by csv.reader and float() instead of
# np.loadtxt: a quote (a quoted field may span lines), a NUL (csv before
# Python 3.11 refuses it), and the ASCII separators 0x1c-0x1f, which numpy's
# float parser skips around a number and float() does not.
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'
_LAST_CHAR = operator.itemgetter(-1)
# So is a block holding a line longer than csv.field_size_limit(), which
# np.loadtxt would read and csv.reader may refuse: both paths then refuse
# the file alike. Only a block whose text is that long is measured by line.

# np.loadtxt stops at the first row it cannot read, having parsed the rows
# before it. That row is read per cell and the rows on either side go back to
# np.loadtxt, so a refusal costs the rows before it once more plus two call
# overheads. (numpy 2.4.6, 256 benchmark-CSV lines, min of 200: refused at
# row 9 a call took 25 us, the 9-row head 20 us; at row 128, 201 and 191 us;
# the whole block 380 us, a one-row call 10 us, and the rows per cell 1.3 ms.)
# Refusals close together pay that for few rows. So once two of a block's
# refusals each come fewer than SPARSE_REFUSALS rows after the block's start
# or the row refused before, its refusals are dense: the rest of the block,
# and then the lines of DENSE_BLOCKS blocks in one pass, go through csv.reader
# and float() before np.loadtxt is tried again. A file with many refused rows
# then costs about what reading every row per cell does.
SPARSE_REFUSALS = 32
DENSE_BLOCKS = 8


class _RaggedRow(Exception):
    """A data row whose width is not the header's; read_table words it."""


class _Codes:
    """A text column coded as its rows are read, each distinct text by its
    first appearance, as :meth:`Coded.of` codes a whole column; only the
    distinct texts are kept."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.codes = array("q")

    def extend(self, texts: list[str]) -> None:
        index = self.index
        for text in dict.fromkeys(texts):
            index.setdefault(text, len(index))
        self.codes.extend(map(index.__getitem__, texts))

    def coded(self) -> Coded:
        return Coded(self.index, self.codes)


class _FlowRows:
    """The data rows of a flow CSV as they are read, a block of lines at a
    time: the features of the rows whose features are all finite, each
    kept row's index among the data rows, and every row's label and day."""

    def __init__(self, features: list[int], label: int, day: int | None) -> None:
        self.features, self.label, self.day = features, label, day
        self.width = len(features) + 1 + (day is not None)
        # np.loadtxt's fields, one per column in header order: features as
        # float64, the label and day as the str objects of their fields.
        self.dtype = np.dtype([(f"c{i}", "f8" if i in features else "O") for i in range(self.width)])
        getter = operator.itemgetter(*self.features)
        # itemgetter returns a bare field, not a 1-tuple, for one column.
        self.feature_cells = getter if len(self.features) > 1 else lambda row: (getter(row),)
        self.unparsed = [float("nan")] * len(self.features)
        self.values = array("d")
        self.kept: list[np.ndarray] = []
        self.labels = _Codes()  # as read: each distinct text is stripped once, at the end
        self.days = _Codes()
        self.rows = 0
        self.near_refusals = 0  # in this block, of fewer than SPARSE_REFUSALS rows
        self.dense = False  # in the last block, two near refusals

    def read(self, block: list[str], lines: Iterator[str]) -> None:
        """Read the lines ``block``; a row left open by a quoted field at
        its end reads on from ``lines``, the file's later lines."""
        if self.dense:
            self.dense = False
            self._read_cells(table_rows(chain(block, lines), DENSE_BLOCKS * LINES_PER_BLOCK))
            return
        text, limit = "".join(block), csv.field_size_limit()
        if (
            any(c in text for c in _CSV_ONLY) or "\r" in map(_LAST_CHAR, block)
            or len(text) > limit and max(map(len, block)) > limit
        ):
            self._read_cells(table_rows(chain(block, lines), len(block)))
            return
        # Blank and comment rows, as tables.table_rows skips them: with no
        # quote in the block, each line is one row and its first field
        # starts the line.
        rows = [line for line in block if line[0] not in "#\r\n"]
        self.near_refusals = 0
        self._parse(rows)

    def _parse(self, rows: list[str]) -> None:
        """Read one-line rows with np.loadtxt. A row it refuses (a field
        float() may still read, or one it may not: "n/a", "1_0", "١٢"; a
        ragged or whitespace-only row) goes through csv.reader and float(),
        and the rows on either side through np.loadtxt again, unless the
        block's refusals are dense (see SPARSE_REFUSALS): then those rows go
        through csv.reader and float() too."""
        if not rows:
            return
        try:
            table = np.loadtxt(rows, self.dtype, delimiter=",", comments=None, ndmin=1)
            refused = None if len(table) == len(rows) else len(rows) // 2
        except ValueError as exc:
            # The row a conversion error names ("... at row 12, column 3.",
            # counted from 0), or the middle one: a wrong guess costs time,
            # not correctness.
            row = str(exc).rpartition(" at row ")[2].partition(",")[0]
            refused = min(int(row), len(rows) - 1) if row.isdigit() else len(rows) // 2
        if refused is None:
            fields = self.dtype.names
            self._add(
                np.stack([table[fields[i]] for i in self.features], axis=1),
                table[fields[self.label]].tolist(),
                [] if self.day is None else table[fields[self.day]].tolist(),
            )
            return
        self.near_refusals += refused < SPARSE_REFUSALS
        if self.near_refusals >= 2:
            self.dense = True
            self._read_cells(table_rows(rows))
        else:
            self._parse(rows[:refused])
            self._read_cells(table_rows(rows[refused:refused + 1]))
            self._parse(rows[refused + 1:])

    def _read_cells(self, rows: Iterator[list[str]]) -> None:
        """Read csv rows a cell at a time; NaN where a feature does not parse."""
        values, labels, days = array("d"), [], []
        width, label, day = self.width, self.label, self.day
        cells, unparsed, n = self.feature_cells, self.unparsed, len(self.features)
        for row in rows:
            if len(row) != width:
                raise _RaggedRow
            try:
                values.extend(map(float, cells(row)))
            except ValueError:
                del values[len(labels) * n:]
                values.extend(unparsed)
            labels.append(row[label])
            if day is not None:
                days.append(row[day])
        self._add(np.frombuffer(values).reshape(len(labels), n), labels, days)

    def _add(self, features: np.ndarray, labels: list[str], days: list[str]) -> None:
        finite = np.isfinite(features).all(axis=1)
        self.values.frombytes((features if finite.all() else features[finite]).view(np.uint8))
        self.kept.append(self.rows + np.flatnonzero(finite))
        self.rows += len(labels)
        self.labels.extend(labels)
        self.days.extend(days)


def write_flow_csv(
    dataset: FlowDataset, rows: Sequence[int] | np.ndarray, path: str | Path,
    header_comment: str | None = None,
) -> None:
    """Write the flows ``rows`` of a dataset, in that order, in the schema
    load_csv reads, as ``csv.writer`` would: ``f"{v:.6g}"`` for each feature,
    the label and the day."""
    tags = {LABEL_COLUMN_DEFAULT: dataset.labels, DAY_COLUMN_DEFAULT: dataset.days}
    tags = {name: tag for name, tag in tags.items() if tag is not None}
    rows = np.asarray(rows, dtype=np.intp)
    tails = quoted_cells([tag.take(rows) for tag in tags.values()])
    header = [*dataset.feature_names, *tags]
    write_rows(path, header_comment, header, [((dataset.features, 6), rows), tails])


# --- attack-class mapping --------------------------------------------------

def _canon(raw: str) -> str:
    """Canonical key for a raw attack-type label: lowercase, dashes and
    whitespace runs collapsed to single spaces."""
    text = raw.lower()
    for dash in ("–", "—", "-"):
        text = text.replace(dash, " ")
    return " ".join(text.split())


DEFAULT_CLASS_MAP: dict[str, str] = {
    "ftp patator": "BruteForce",
    "ssh patator": "BruteForce",
    "web attack brute force": "WebAttack",
    "web attack xss": "WebAttack",
    "web attack sql injection": "WebAttack",
    "heartbleed": "Heartbleed",
    "dos hulk": "DoS",
    "dos goldeneye": "DoS",
    "dos slowloris": "DoS",
    "dos slowhttptest": "DoS",
    "ddos": "DDoS",
    "portscan": "PortScan",
    "bot": "Bot",
    "infiltration": "Infiltration",
    "benign": BENIGN_CLASS,
}

def load_class_map_override(path: str | Path) -> dict[str, str]:
    """Read raw-label overrides from a two-column CSV (raw, class). Two rows
    whose raw labels match (see :func:`map_attack_types`) are an error."""
    return read_keyed(path, ["raw", "class"], "raw label", _class_map_row)


def _class_map_row(fields: list[str]) -> tuple[str, str]:
    raw, cls = fields
    if not raw or not cls:
        raise ValueError("empty field")
    return _canon(raw), cls


def map_attack_types(
    labels: Sequence[str], override: Mapping[str, str] | None = None
) -> Coded:
    """Map raw attack-type labels to class labels, each distinct label once.

    Matching is case- and dash-insensitive. Labels not covered by the
    built-in table or the override map to the flagged unknown class.
    """
    table = dict(DEFAULT_CLASS_MAP)
    if override:
        table.update(override)
    return Coded.of(labels).map(lambda raw: table.get(_canon(raw), UNKNOWN_CLASS))


def binary_labels(classes: Sequence[str]) -> np.ndarray:
    """Ground-truth attack indicator: 1 for any non-benign class."""
    classes = Coded.of(classes)
    attack = np.array([name != BENIGN_CLASS for name in classes.names], dtype=int)
    return attack[classes.codes]


# --- normalization -----------------------------------------------------------

@dataclass(frozen=True)
class NormStats:
    """Per-feature min/max computed on the training split."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValidationError("mins and maxs must be 1-d arrays of equal length")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


def fit_normalization(features: np.ndarray) -> NormStats:
    feats = np.asarray(features, dtype=float)
    return NormStats(feats.min(axis=0), feats.max(axis=0))


def apply_normalization(
    features: np.ndarray, stats: NormStats, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Min-max scale into [0,1] with train statistics; out-of-range values
    clip and constant features collapse to 0.0. The result goes to ``out``
    when given, which may be ``features`` itself."""
    feats = np.asarray(features, dtype=float)
    if feats.shape[1] != stats.mins.shape[0]:
        raise ValidationError(
            f"{feats.shape[1]} features but statistics cover {stats.mins.shape[0]}"
        )
    span = stats.maxs - stats.mins
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    scaled = np.subtract(feats, stats.mins, out=out)
    scaled /= safe_span
    scaled[:, constant] = 0.0
    return np.clip(scaled, 0.0, 1.0, out=scaled)


# --- splitting ---------------------------------------------------------------

class SplitMode(str, Enum):
    DAY_BASED = "day_based"
    STRATIFIED = "stratified"


@dataclass(frozen=True)
class SplitSpec:
    """Split request. ``mode=None`` selects day-based when the day-based
    training split carries at least the threshold share of attacks, falling
    back to a seeded stratified split otherwise."""

    mode: SplitMode | None = None
    fractions: tuple[float, float, float] = (0.5, 0.2, 0.3)
    attack_share_threshold: float = 0.05

    def __post_init__(self) -> None:
        if len(self.fractions) != 3:
            raise ValidationError(f"fractions needs three values, got {self.fractions!r}")
        if not all(map(math.isfinite, self.fractions)):
            raise ValidationError(f"fractions must be finite, got {self.fractions!r}")
        if any(f < 0.0 for f in self.fractions):
            raise ValidationError(f"fractions must be non-negative, got {self.fractions!r}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValidationError(f"fractions must sum to 1, got {self.fractions!r}")
        if self.fractions[0] == 0.0 or self.fractions[2] == 0.0:
            raise ValidationError(f"fractions need train and test > 0, got {self.fractions!r}")
        if not 0.0 <= self.attack_share_threshold <= 1.0:
            raise ValidationError(
                f"attack_share_threshold must lie in [0,1], got {self.attack_share_threshold!r}"
            )


@dataclass(frozen=True)
class SplitResult:
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    mode_used: SplitMode


def _day_indices(days: Coded) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    unknown = sorted({days.names[code] for code in days.present()} - set(WEEKDAYS))
    if unknown:
        raise ValidationError(f"unknown day tags: {', '.join(map(repr, unknown))}")
    groups = (TRAIN_DAYS, VALIDATION_DAYS, TEST_DAYS)
    part = [next((k for k, days_of in enumerate(groups) if name in days_of), -1) for name in days.names]
    part = np.array(part, dtype=np.intp)[days.codes]
    return tuple(np.flatnonzero(part == k) for k in range(len(groups)))


def _stratified_indices(
    classes: Coded, spec: SplitSpec, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    parts: tuple[list[np.ndarray], ...] = ([], [], [])  # train, validation, test
    for code in sorted(classes.present(), key=classes.names.__getitem__):
        idx = np.flatnonzero(classes.codes == code)
        if idx.size < 3:
            logger.warning(
                "class %s has %d rows, fewer than 3; placing all in train",
                classes.names[code], idx.size,
            )
            parts[0].append(idx)
            continue
        idx = rng.permutation(idx)
        n_train = int(idx.size * spec.fractions[0])
        n_val = int(idx.size * spec.fractions[1])
        for part, chunk in zip(parts, np.split(idx, [n_train, n_train + n_val])):
            part.append(chunk)
    train, val, test = (np.sort(np.concatenate([np.empty(0, dtype=int), *p])) for p in parts)
    return train, val, test


def split(dataset: FlowDataset, classes: Sequence[str], spec: SplitSpec, seed: int) -> SplitResult:
    """Partition rows into train/validation/test.

    Day-based uses Monday+Tuesday for train, Wednesday for validation,
    Thursday+Friday for test, and is only viable when its training split
    contains enough attacks; stratified, seeded by ``seed``, preserves class proportions.
    """
    if len(classes) != len(dataset):
        raise ValidationError(f"{len(classes)} class labels for {len(dataset)} rows")
    classes = Coded.of(classes)
    mode = spec.mode
    if mode is SplitMode.DAY_BASED and dataset.days is None:
        raise ValidationError("day-based split requested but dataset has no day tags")
    by_day = None
    if mode is not SplitMode.STRATIFIED and dataset.days is not None:
        by_day = _day_indices(dataset.days)
    if mode is None:
        mode = SplitMode.STRATIFIED
        if by_day is not None and by_day[0].size:
            share = float(np.mean(binary_labels(classes)[by_day[0]]))
            if share >= spec.attack_share_threshold:
                mode = SplitMode.DAY_BASED
    if mode is SplitMode.DAY_BASED:
        train_idx, val_idx, test_idx = by_day
    else:
        train_idx, val_idx, test_idx = _stratified_indices(classes, spec, seed)
    return SplitResult(train_idx, val_idx, test_idx, mode)


# --- synthetic benchmark -----------------------------------------------------

DEFAULT_CLASS_MIX: dict[str, float] = {
    "DoS": 0.17,
    "PortScan": 0.16,
    "DDoS": 0.15,
    "BruteForce": 0.14,
    "WebAttack": 0.12,
    "Bot": 0.11,
    "Heartbleed": 0.09,
    "Infiltration": 0.06,
}

# Raw attack-type labels emitted per class, cycled deterministically so the
# class-mapping path is exercised end to end.
_RAW_LABELS: dict[str, tuple[str, ...]] = {
    "BruteForce": ("FTP-Patator", "SSH-Patator"),
    "WebAttack": ("Web Attack - Brute Force", "Web Attack - XSS", "Web Attack - Sql Injection"),
    "Heartbleed": ("Heartbleed",),
    "DoS": ("DoS Hulk", "DoS GoldenEye", "DoS slowloris", "DoS Slowhttptest"),
    "DDoS": ("DDoS",),
    "PortScan": ("PortScan",),
    "Bot": ("Bot",),
    "Infiltration": ("Infiltration",),
}

STRONG_FEATURE_NAMES = (
    "Flow Duration",
    "Total Fwd Packets",
    "Total Backward Packets",
    "Flow Bytes/s",
    "Flow Packets/s",
    "Fwd Packet Length Mean",
    "Bwd Packet Length Mean",
    "Flow IAT Mean",
    "Fwd IAT Mean",
    "Bwd IAT Mean",
    "Packet Length Variance",
    "Average Packet Size",
    "Subflow Fwd Bytes",
    "Init Win Bytes Forward",
)

FLAG_FEATURE_NAMES = (
    "FIN Flag Count",
    "SYN Flag Count",
    "RST Flag Count",
    "PSH Flag Count",
    "ACK Flag Count",
    "URG Flag Count",
    "CWE Flag Count",
    "ECE Flag Count",
)

# Fixed loading pattern projecting the scalar flag activity level onto the
# eight flag features.
_FLAG_LOADINGS = np.asarray([1.0, 0.9, 0.8, 1.1, 0.7, 0.6, 0.9, 0.8])

# Per-class multiplier on the detectable flag level: aggressive attack
# families hammer TCP flags harder, so detector confidence carries a mild
# severity signal instead of being pure noise.
DEFAULT_CLASS_FLAG_FACTOR: dict[str, float] = {
    "Heartbleed": 1.70,
    "BruteForce": 1.10,
    "WebAttack": 1.08,
    "DDoS": 1.05,
    "Bot": 1.00,
    "DoS": 0.95,
    "Infiltration": 0.85,
    "PortScan": 0.70,
}


@dataclass(frozen=True)
class DatasetConfig:
    """The [dataset] section of a run: where the flows come from."""

    source: str = "synth"  # synth | csv
    path: str | None = None
    label_column: str = LABEL_COLUMN_DEFAULT
    day_column: str = DAY_COLUMN_DEFAULT
    class_map: str | None = None  # raw-label override CSV
    catalog: str | None = None  # attack-class profile CSV

    def __post_init__(self) -> None:
        if self.source not in ("synth", "csv"):
            raise ValidationError(f"source must be synth or csv, got {self.source!r}")
        if self.source == "csv" and not self.path:
            raise ValidationError("source=csv requires path")


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic benchmark shape.

    The strong features separate attacks from benign traffic cleanly (scaled
    by ``separation``); the flag features carry a weak signal where most
    attacks are indistinguishable from benign background and a small benign
    subpopulation shows attack-like flag activity.
    """

    n_flows: int = 5000
    attack_fraction: float = 0.2
    separation: float = 3.2
    class_weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_CLASS_MIX))
    attack_detectable_rate: float = 0.45
    attack_flag_level: float = 0.35
    attack_flag_sd: float = 0.06
    class_flag_factor: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_FLAG_FACTOR)
    )
    benign_outlier_rate: float = 0.03
    benign_outlier_level: float = 0.55
    benign_outlier_sd: float = 0.08

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValidationError(f"n_flows must be >= 1, got {self.n_flows!r}")
        shares = ("attack_fraction", "attack_detectable_rate", "benign_outlier_rate")
        for name, value in vars(self).items():
            for v in value.values() if isinstance(value, Mapping) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValidationError(f"{name} must be finite, got {v!r}")
            if name in ("separation", "attack_flag_sd", "benign_outlier_sd") and value < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {value!r}")
            if name in shares and not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0,1], got {value!r}")
        if not self.class_weights:
            raise ValidationError("class_weights must not be empty")
        unknown = sorted(set(self.class_weights) - set(_RAW_LABELS))
        if unknown:
            raise ValidationError(f"class_weights has unknown classes: {', '.join(unknown)}")
        if any(w < 0.0 for w in self.class_weights.values()) or sum(self.class_weights.values()) <= 0.0:
            raise ValidationError("class_weights must be non-negative with positive sum")
        missing = sorted(set(self.class_weights) - set(self.class_flag_factor))
        if missing:
            raise ValidationError(f"class_flag_factor lacks classes: {', '.join(missing)}")
        if any(f <= 0.0 for f in self.class_flag_factor.values()):
            raise ValidationError("class_flag_factor values must be > 0")


def class_counts(config: SynthConfig) -> dict[str, int]:
    """Exact per-class attack counts by largest-remainder apportionment."""
    n_attacks = round(config.n_flows * config.attack_fraction)
    total = sum(config.class_weights.values())
    names = sorted(config.class_weights)
    quotas = {cls: n_attacks * config.class_weights[cls] / total for cls in names}
    counts = {cls: int(quotas[cls]) for cls in names}
    shortfall = n_attacks - sum(counts.values())
    by_remainder = sorted(names, key=lambda cls: (counts[cls] - quotas[cls], cls))
    for cls in by_remainder[:shortfall]:
        counts[cls] += 1
    return counts


SYNTH_ROWS = 1024  # rows of the feature matrix shuffled into place at a time


def synth_generate(config: SynthConfig, seed: int) -> FlowDataset:
    """Generate the synthetic benchmark; byte-identical output per config and
    seed. Flows are drawn attacks first, in class order, then shuffled.
    Beside the feature matrix it returns, it holds the strong and the flag
    features drawn and a few per-flow vectors, never a second copy."""
    rng = np.random.default_rng(seed)
    counts = class_counts(config)
    n, n_attacks, d_strong = config.n_flows, sum(counts.values()), len(STRONG_FEATURE_NAMES)
    strong = rng.normal(0.0, 1.0, size=(n, d_strong))
    direction = np.ones(d_strong) / np.sqrt(d_strong)
    strong[:n_attacks] += config.separation * direction

    # The flag features: the projection of each flow's activity level, added
    # to the noise in place, a column at a time (a sum has the bits of its
    # terms' sum in either order).
    level = _flag_level(config, counts, rng)
    flags = rng.normal(0.0, 0.06, size=(n, len(FLAG_FEATURE_NAMES)))
    for column, loading in zip(flags.T, _FLAG_LOADINGS):
        column += level * loading
    del level

    # Both blocks of columns gathered in shuffled row order, a block of rows
    # at a time, into the one feature matrix.
    order = rng.permutation(n)
    features = np.empty((n, d_strong + flags.shape[1]))
    for start in range(0, n, SYNTH_ROWS):
        rows = order[start:start + SYNTH_ROWS]
        features[start:start + len(rows), :d_strong] = strong[rows]
        features[start:start + len(rows), d_strong:] = flags[rows]
    del strong, flags

    # Raw label codes in class order, each class cycling through its labels;
    # benign flows last.
    names: list[str] = []
    codes: list[np.ndarray] = []
    for cls in sorted(counts):
        raw = _RAW_LABELS[cls]
        codes.append(len(names) + np.arange(counts[cls]) % len(raw))
        names.extend(raw)
    codes.append(np.full(n - n_attacks, len(names)))
    names.append("BENIGN")
    return FlowDataset(
        features,
        STRONG_FEATURE_NAMES + FLAG_FEATURE_NAMES,
        Coded(names, np.concatenate(codes)[order]),
        Coded(WEEKDAYS, np.arange(n) % len(WEEKDAYS)),
    )


def _flag_level(
    config: SynthConfig, counts: Mapping[str, int], rng: np.random.Generator
) -> np.ndarray:
    """Each flow's scalar flag activity level, attack flows (in class order)
    first: detectable attacks around their class's level, most benign flows
    near zero and a few benign outliers high."""
    n_attacks = sum(counts.values())
    n_benign = config.n_flows - n_attacks
    level = np.empty(config.n_flows)
    detectable = rng.random(n_attacks) < config.attack_detectable_rate
    level_mean = np.repeat(
        [config.attack_flag_level * config.class_flag_factor[cls] for cls in sorted(counts)],
        [counts[cls] for cls in sorted(counts)],
    )
    level[:n_attacks] = np.where(
        detectable,
        rng.normal(level_mean, config.attack_flag_sd),
        rng.normal(0.02, 0.05, size=n_attacks),
    )
    outlier = rng.random(n_benign) < config.benign_outlier_rate
    level[n_attacks:] = np.where(
        outlier,
        rng.normal(config.benign_outlier_level, config.benign_outlier_sd, size=n_benign),
        rng.normal(0.0, 0.05, size=n_benign),
    )
    return level
