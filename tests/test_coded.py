"""Text columns as codes: the coded path against a per-row string reference.

The reference functions below are the per-row formulas the package used
before labels, days and classes were held as :class:`Coded` columns; every
result of the coded path must equal theirs.
"""

from __future__ import annotations

import csv
import io
import logging
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzztriage.alerts import UNKNOWN_CLASS
from fuzztriage.calibration import per_class_counts
from fuzztriage.errors import ValidationError
from fuzztriage.ingestion import (
    BENIGN_CLASS,
    DEFAULT_CLASS_MAP,
    TEST_DAYS,
    TRAIN_DAYS,
    VALIDATION_DAYS,
    WEEKDAYS,
    FlowDataset,
    SplitMode,
    SplitSpec,
    _canon,
    binary_labels,
    load_csv,
    map_attack_types,
    split,
    write_flow_csv,
)
from fuzztriage.tables import Coded, quoted_cells


# --- the per-row string reference ------------------------------------------------

def ref_classes(labels):
    mapped = {raw: DEFAULT_CLASS_MAP.get(_canon(raw), UNKNOWN_CLASS) for raw in set(labels)}
    return tuple(map(mapped.__getitem__, labels))


def ref_binary(classes):
    return np.asarray([0 if cls == BENIGN_CLASS else 1 for cls in classes], dtype=int)


def ref_day_indices(days):
    unknown = sorted(set(days) - set(WEEKDAYS))
    if unknown:
        raise ValidationError(f"unknown day tags: {', '.join(map(repr, unknown))}")
    tags = np.asarray(days)
    return tuple(np.flatnonzero(np.isin(tags, g)) for g in (TRAIN_DAYS, VALIDATION_DAYS, TEST_DAYS))


def ref_stratified(classes, spec, seed):
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    arr = np.asarray(classes)
    for cls in sorted(set(classes)):
        idx = np.flatnonzero(arr == cls)
        if idx.size < 3:
            parts[0].append(idx)
            continue
        idx = rng.permutation(idx)
        n_train = int(idx.size * spec.fractions[0])
        n_val = int(idx.size * spec.fractions[1])
        for part, chunk in zip(parts, np.split(idx, [n_train, n_train + n_val])):
            part.append(chunk)
    return tuple(np.sort(np.concatenate([np.empty(0, dtype=int), *p])) for p in parts)


def ref_split(days, classes, spec, seed):
    mode = spec.mode
    if mode is None:
        mode = SplitMode.STRATIFIED
        train_idx = ref_day_indices(days)[0]
        if train_idx.size:
            share = float(np.mean(ref_binary([classes[i] for i in train_idx])))
            if share >= spec.attack_share_threshold:
                mode = SplitMode.DAY_BASED
    if mode is SplitMode.DAY_BASED:
        return ref_day_indices(days), mode
    return ref_stratified(classes, spec, seed), mode


def ref_counts(classes, labels, predictions):
    counts = {}
    for cls, y, yhat in zip(classes, labels, predictions):
        tally = counts.setdefault(cls, [0, 0, 0])
        if y == 1 and yhat == 1:
            tally[0] += 1
        elif y == 0 and yhat == 1:
            tally[1] += 1
        elif y == 1 and yhat == 0:
            tally[2] += 1
    return {cls: tuple(t) for cls, t in counts.items()}


def ref_split_file(features, names, labels, days, rows, stamp):
    out = io.StringIO()
    out.write(f"# {stamp}\n")
    writer = csv.writer(out)
    writer.writerow([*names, "Label", "Day"])
    for i in rows:
        writer.writerow([*(f"{v:.6g}" for v in features[i]), labels[i], days[i]])
    return out.getvalue().encode()


# --- random label and day texts ----------------------------------------------------

def _variant(args):
    base, case, dash, pad = args
    text = case(base)
    if dash:
        text = text.replace(" ", "-") if " " in text else text.replace("-", " – ")
    return pad + text + pad


KNOWN = ("BENIGN", "DoS Hulk", "PortScan", "SSH-Patator", "Web Attack – XSS", "DDoS", "Bot")
# Case, dash and surrounding-whitespace variants of labels the class map knows.
variants = st.tuples(
    st.sampled_from(KNOWN), st.sampled_from([str, str.lower, str.upper]), st.booleans(),
    st.sampled_from(["", " ", "\t", "  "]),
).map(_variant)
# Texts csv.writer must quote or that are not ASCII: quotes, commas, NUL, CR/LF.
odd = st.text(alphabet=st.sampled_from('"\',é–\x00 \r\nDoS-ü'), max_size=6)
label_pools = st.lists(st.one_of(variants, odd), min_size=1, max_size=6)
# Mostly weekdays; now and then a text no weekday matches.
day_pools = st.tuples(
    st.lists(st.sampled_from(WEEKDAYS), min_size=1, max_size=5),
    st.lists(st.one_of(odd, st.sampled_from([" Monday", "monday", ""])), max_size=1),
).map(lambda pools: pools[0] + pools[1])


@st.composite
def flow_texts(draw, pools=(label_pools, day_pools)):
    """Per-row label and day texts, drawn from small pools so texts repeat,
    and a predicted-attack flag per row."""
    labels, days = (draw(pool) for pool in pools)
    n = draw(st.integers(1, 60))
    picks = st.lists(st.integers(0, 10**6), min_size=n, max_size=n)
    return (
        [labels[i % len(labels)] for i in draw(picks)],
        [days[i % len(days)] for i in draw(picks)],
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
    )


def _same_split(got, expected):
    (parts, mode) = expected
    assert got.mode_used is mode
    for a, b in zip((got.train_idx, got.val_idx, got.test_idx), parts):
        assert np.array_equal(a, b)


class TestCodedAgainstStrings:
    @given(flow_texts())
    @settings(max_examples=150, deadline=None)
    def test_classes_splits_counts_and_files_match(self, texts):
        labels, days, yhat = texts
        n = len(labels)
        features = np.arange(2 * n, dtype=float).reshape(n, 2) * 0.37 - 3.0
        dataset = FlowDataset(features, ("f 1", "f,2"), labels, days)
        classes = map_attack_types(dataset.labels)
        expected_classes = ref_classes(labels)
        assert tuple(classes) == expected_classes
        y = binary_labels(classes)
        assert y.dtype == ref_binary(expected_classes).dtype
        assert np.array_equal(y, ref_binary(expected_classes))

        logging.disable(logging.WARNING)  # the fewer-than-3-rows warning
        try:
            for mode in (None, SplitMode.STRATIFIED, SplitMode.DAY_BASED):
                spec = SplitSpec(mode=mode)
                try:
                    expected = ref_split(days, expected_classes, spec, 11)
                except ValidationError as exc:
                    with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                        split(dataset, classes, spec, 11)
                    continue
                result = split(dataset, classes, spec, 11)
                _same_split(result, expected)
        finally:
            logging.disable(logging.NOTSET)

        va = result.val_idx
        counts = per_class_counts(classes.take(va), y[va], np.asarray(yhat)[va])
        expected_counts = ref_counts([expected_classes[i] for i in va], y[va], [yhat[i] for i in va])
        assert counts == expected_counts

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory, "split.csv")
            for rows in (result.train_idx, result.val_idx, result.test_idx, np.arange(n)[::-1]):
                write_flow_csv(dataset, rows, path, header_comment="stamp")
                expected_bytes = ref_split_file(features, dataset.feature_names, labels, days, rows,
                                                "stamp")
                assert path.read_bytes() == expected_bytes

    @given(flow_texts())
    @settings(max_examples=75, deadline=None)
    def test_load_csv_codes_stripped_texts(self, texts):
        labels, days, _ = texts
        if sys.version_info < (3, 11):  # csv.reader reads NUL from Python 3.11 on
            labels = [text.replace("\x00", "") for text in labels]
            days = [text.replace("\x00", "") for text in days]
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["f1", "Label", "Day"])
        writer.writerows([i, label, day] for i, (label, day) in enumerate(zip(labels, days)))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory, "flows.csv")
            path.write_text(out.getvalue(), encoding="utf-8", newline="")
            dataset, _ = load_csv(path)
        for column, texts_read in ((dataset.labels, labels), (dataset.days, days)):
            assert tuple(column) == tuple(text.strip() for text in texts_read)
            assert len(set(column.names)) == len(column.names)


class TestCoded:
    def test_reads_and_compares_as_its_rows(self):
        column = Coded.of(["b", "a", "b", "c"])
        assert column.names == ("b", "a", "c")
        assert column.codes.tolist() == [0, 1, 0, 2]
        assert column == ("b", "a", "b", "c") and ("b", "a", "b", "c") == column
        assert column != ("b", "a", "b") and column != ["b", "a", "b", "d"]
        assert column[3] == "c" and column[-4] == "b"
        assert column[1:3] == ("a", "b") and column[::-2] == ("c", "a")
        assert isinstance(column[:2], Coded)
        assert list(column.take([3, 0])) == ["c", "b"]
        assert Coded.of(column) is column

    def test_map_calls_once_per_name_and_merges_equal_results(self):
        calls = []

        def strip(text):
            calls.append(text)
            return text.strip()

        column = Coded.of([" a", "a", "b ", " a", "a"]).map(strip)
        assert calls == [" a", "a", "b "]
        assert column.names == ("a", "b")
        assert column == ("a", "a", "b", "a", "a")

    def test_present_lists_codes_some_row_holds(self):
        column = Coded(("x", "y", "z"), [2, 0, 2])
        assert column.present().tolist() == [0, 2]

    def test_quoted_cells_tell_rows_apart_by_code(self):
        labels = Coded.of(['a,"b"', "é", 'a,"b"', "é"])
        days = Coded.of(["Monday", "Monday", "Monday", "Friday"])
        cells, which = quoted_cells([labels, days])
        texts = [bytes(row[row != 0xFF]).decode() for row in cells[which]]
        assert texts == ['"a,""b""",Monday', "é,Monday", '"a,""b""",Monday', "é,Friday"]
        assert len(cells) == 3
