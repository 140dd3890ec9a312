"""Dataset loading, class mapping, normalization, splits, synthesis."""

from __future__ import annotations

import csv
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzztriage.alerts import UNKNOWN_CLASS, load_catalog
from fuzztriage.detector import ATTACK_THRESHOLD, DetectorReport, train_lr
from fuzztriage import ingestion
from fuzztriage.errors import ParseError, ValidationError
from fuzztriage.ingestion import (
    DENSE_BLOCKS,
    LINES_PER_BLOCK,
    SPARSE_REFUSALS,
    DEFAULT_CLASS_FLAG_FACTOR,
    DEFAULT_CLASS_MIX,
    FLAG_FEATURE_NAMES,
    STRONG_FEATURE_NAMES,
    WEEKDAYS,
    FlowDataset,
    NormStats,
    SplitMode,
    SplitSpec,
    SynthConfig,
    apply_normalization,
    binary_labels,
    class_counts,
    fit_normalization,
    load_class_map_override,
    load_csv,
    map_attack_types,
    split,
    synth_generate,
    write_flow_csv,
)
from fuzztriage.tables import ROWS_PER_WRITE


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestFlowDataset:
    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            FlowDataset(np.zeros(3), ("a",), ("x", "y", "z"))
        with pytest.raises(ValidationError):
            FlowDataset(np.zeros((2, 2)), ("a",), ("x", "y"))
        with pytest.raises(ValidationError):
            FlowDataset(np.zeros((2, 2)), ("a", "a"), ("x", "y"))
        with pytest.raises(ValidationError):
            FlowDataset(np.zeros((2, 2)), ("a", "b"), ("x",))
        with pytest.raises(ValidationError):
            FlowDataset(np.zeros((2, 2)), ("a", "b"), ("x", "y"), days=("Monday",))

    def test_writer_keeps_row_order(self, tmp_path):
        ds = FlowDataset(
            np.arange(6.0).reshape(3, 2),
            ("a", "b"),
            ("x", "y", "z"),
            days=("Monday", "Tuesday", "Wednesday"),
        )
        write_flow_csv(ds, [2, 0], tmp_path / "flows.csv")
        data = (tmp_path / "flows.csv").read_bytes()
        assert data == b"a,b,Label,Day\r\n4,5,z,Wednesday\r\n0,1,x,Monday\r\n"


class TestLoadCsv:
    def test_ten_clean_rows(self, tmp_path):
        path = tmp_path / "flows.csv"
        rows = [[i, i * 2, "BENIGN" if i % 2 else "DoS Hulk", "Monday"] for i in range(10)]
        write_rows(path, ["f1", "f2", "Label", "Day"], rows)
        ds, report = load_csv(path)
        assert report.rows_kept == 10
        assert report.rows_dropped == 0
        assert len(ds) == 10
        assert ds.feature_names == ("f1", "f2")
        assert ds.days is not None and set(ds.days) == {"Monday"}

    def test_non_finite_rows_dropped(self, tmp_path):
        path = tmp_path / "flows.csv"
        rows = [[1.0, 2.0, "BENIGN"] for _ in range(8)]
        rows.insert(3, ["Infinity", 2.0, "BENIGN"])
        rows.insert(6, [1.0, "NaN", "DoS Hulk"])
        write_rows(path, ["f1", "f2", "Label"], rows)
        ds, report = load_csv(path)
        assert report.rows_kept == 8
        assert report.rows_dropped == 2
        assert report.rows.tolist() == [0, 1, 2, 4, 5, 7, 8, 9]
        assert ds.days is None

    def test_non_numeric_rows_dropped(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_rows(path, ["f1", "Label"], [["oops", "BENIGN"], [1.0, "BENIGN"]])
        _, report = load_csv(path)
        assert report.rows_kept == 1
        assert report.rows_dropped == 1
        assert report.rows.tolist() == [1]

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("f1,f2,Label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_rows(path, ["f1", "f2"], [[1.0, 2.0]])
        with pytest.raises(ParseError, match="label column"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_csv(tmp_path / "absent.csv")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("f1,f2,Label\n1.0,2.0,BENIGN\n1.0,BENIGN\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_all_rows_dropped_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_rows(path, ["f1", "Label"], [["x", "BENIGN"], ["y", "BENIGN"]])
        with pytest.raises(ParseError, match="dropped"):
            load_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("# config_hash=abc seed=1\nf1,Label\n1.0,BENIGN\n")
        ds, _ = load_csv(path)
        assert len(ds) == 1

    def test_duplicate_column_named(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("Fwd Header Length,f2,Fwd Header Length,Label\n1,2,3,BENIGN\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: duplicate column 'Fwd Header Length'"

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("\ufeffLabel,f1\nBENIGN,1.0\n", encoding="utf-8")
        ds, _ = load_csv(path)
        assert ds.feature_names == ("f1",)
        assert ds.labels == ("BENIGN",)


# --- scalar references for the flow CSV reader and writer ----------------------

def reference_flow_csv(dataset, rows=None, header_comment=None) -> bytes:
    """``write_flow_csv`` one value at a time: csv.writer over f"{v:.6g}"
    fields of the flows ``rows`` (all of them by default)."""
    out = io.StringIO(newline="")
    if header_comment is not None:
        out.write(f"# {header_comment}\n")
    writer = csv.writer(out)
    writer.writerow([*dataset.feature_names, "Label"] + (["Day"] if dataset.days is not None else []))
    for i in range(len(dataset)) if rows is None else rows:
        row = [f"{v:.6g}" for v in dataset.features[i]] + [dataset.labels[i]]
        if dataset.days is not None:
            row.append(dataset.days[i])
        writer.writerow(row)
    return out.getvalue().encode("utf-8")


def float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def reference_load(text):
    """``load_csv`` one row at a time with float() and isfinite: the error
    message (without the path) or (features, names, labels, days, dropped,
    the data-row index of each kept row)."""
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r and not r[0].startswith("#")]
    header = [name.strip() for name in rows[0]]
    label_idx = header.index("Label")
    day_idx = header.index("Day") if "Day" in header else None
    feature_idx = [i for i in range(len(header)) if i not in (label_idx, day_idx)]
    if len(rows) == 1:
        return "no data rows"
    kept, kept_rows, dropped = [], [], 0
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            return f"row {n} has {len(row)} fields, expected {len(header)}"
        try:
            values = [float(row[i]) for i in feature_idx]
        except ValueError:
            dropped += 1
            continue
        if not all(math.isfinite(v) for v in values):
            dropped += 1
            continue
        kept.append((values, row[label_idx].strip(), None if day_idx is None else row[day_idx].strip()))
        kept_rows.append(n - 2)
    if not kept:
        name, text = next((header[i], rows[1][i]) for i in feature_idx
                          if not math.isfinite(float_or_nan(rows[1][i])))
        return f"all {dropped} data rows were dropped (row 2: {name!r} is {text!r}, not a finite number)"
    features = np.array([values for values, _, _ in kept], dtype=float)
    names = tuple(header[i] for i in feature_idx)
    days = None if day_idx is None else tuple(day for _, _, day in kept)
    return features, names, tuple(label for _, label, _ in kept), days, dropped, kept_rows


def csv_line(fields, newline="\r\n") -> str:
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator=newline).writerow(fields)
    return out.getvalue()


# Labels and days with the characters csv quoting depends on, and any text.
tag_text = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t#é–')), max_size=6) | st.text(max_size=6)
feature_values = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300]
)
# Feature cells: numbers as repr writes them, and texts that np.loadtxt
# refuses ("1_0", "١٢") or reads unlike float() ("\x1c1"), that float()
# strips (" 1", "\xa01") or that underflow ("1e-400").
cells = st.floats().map(repr) | st.sampled_from(
    ["1", "-2.5", "1e-300", "1e400", "1e-400", "Infinity", "-inf", "NaN", "n/a", "", " 1.5 ",
     " 1", "1_0", "+3.", "١٢", "\x1c1", "2\x1f", "\xa01"]
)
# Labels and days of a flow file: a NUL, a quoted line break, or any tag text.
file_tags = tag_text | st.sampled_from(["a\0b", "\0", "a\nb", "a\r\nb"])
# Tags csv.writer never quotes, so that whole files reach np.loadtxt.
plain_tags = st.text(alphabet=st.sampled_from(list("ab \t#é–")), max_size=6)


@st.composite
def flow_datasets(draw):
    d, n = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    values = draw(st.lists(feature_values, min_size=n * d, max_size=n * d))
    names = draw(st.lists(tag_text, min_size=d, max_size=d, unique=True))
    labels = draw(st.lists(tag_text, min_size=n, max_size=n))
    days = draw(st.none() | st.lists(tag_text, min_size=n, max_size=n).map(tuple))
    return FlowDataset(np.array(values, dtype=float).reshape(n, d), tuple(names), tuple(labels), days)


@st.composite
def flow_files(draw):
    """CSV text with a shuffled header, 1 to 3 feature columns, an optional
    Day column, and up to 12 data rows mixed with comment, blank,
    whitespace-only and ragged lines. Lines end in CRLF or LF, and some rows
    in a bare CR."""
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    tags = draw(st.sampled_from([file_tags, plain_tags]))
    d = draw(st.integers(1, 3))
    names = [f"f{i}" for i in range(d)] + ["Label"] + (["Day"] if draw(st.booleans()) else [])
    header = draw(st.permutations(names))
    lines = [csv_line([draw(st.sampled_from([name, f" {name} "])) for name in header], newline)]
    # Half the files hold no line that ends the load or sends its block to
    # csv.reader, so that rows refused by np.loadtxt meet in one block.
    kinds = ["row"] * 3 + ["comment", "blank"]
    kinds += draw(st.sampled_from([[], ["space", "bare CR", "ragged"]]))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append("# " + csv_line(["note", "x"], newline))
        elif kind == "blank":
            lines.append(newline)
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \x0c"])) + newline)
        else:
            row = [draw(cells) if name.startswith("f") else draw(tags) for name in header]
            if kind == "ragged":
                row = row[:-1] if draw(st.booleans()) else row + ["1"]
            lines.append(csv_line(row, "\r" if kind == "bare CR" else newline))
    return "".join(lines)


def assert_loads_as_reference(path, text):
    """load_csv of the file ``path``, which holds ``text``, gives what
    reference_load gives: the same flows, or the same error."""
    try:
        expected = reference_load(text)
    except csv.Error as exc:  # a NUL, before Python 3.11
        with pytest.raises(csv.Error, match=re.escape(str(exc))):
            load_csv(path)
        return
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {expected}"
        return
    features, names, labels, days, dropped, kept_rows = expected
    ds, report = load_csv(path)
    assert ds.features.shape == features.shape
    assert ds.features.tobytes() == features.tobytes()
    assert (ds.feature_names, ds.labels, ds.days) == (names, labels, days)
    assert (report.rows_kept, report.rows_dropped) == (len(labels), dropped)
    assert report.rows.tolist() == kept_rows


class TestFlowCsvProperties:
    @given(flow_datasets(), st.data(), st.none() | st.just("config_hash=abc seed=1"))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_reference(self, tmp_path_factory, dataset, data, comment):
        # any rows of the dataset, in any order, repeats included
        rows = data.draw(st.lists(st.integers(0, len(dataset) - 1)) if len(dataset) else st.just([]))
        path = tmp_path_factory.getbasetemp() / "written.csv"
        write_flow_csv(dataset, rows, path, header_comment=comment)
        assert path.read_bytes() == reference_flow_csv(dataset, rows, comment)

    def test_writer_matches_reference_across_chunks(self, tmp_path):
        dataset = synth_generate(SynthConfig(n_flows=2 * ROWS_PER_WRITE + 1), 4)
        rows = np.random.default_rng(4).permutation(len(dataset))
        write_flow_csv(dataset, rows, tmp_path / "flows.csv")
        assert (tmp_path / "flows.csv").read_bytes() == reference_flow_csv(dataset, rows.tolist())

    def test_writer_memory_stays_bounded(self, tmp_path):
        dataset = synth_generate(SynthConfig(n_flows=20_000), 4)
        assert dataset.features.shape == (20_000, 22)
        tracemalloc.start()
        try:
            write_flow_csv(dataset, np.arange(len(dataset)), tmp_path / "flows.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_writer_memory_follows_rows_written(self, tmp_path):
        # Writing 1,000 flows of a long dataset holds no copy of any column
        # as long as the dataset.
        peaks = []
        for n in (2_000, 200_000):
            dataset = FlowDataset(
                np.ones((n, 2)), ("f1", "f2"), ("DoS Hulk",) * n, ("Wednesday",) * n
            )
            tracemalloc.start()
            try:
                write_flow_csv(dataset, np.arange(0, n, n // 1000), tmp_path / "flows.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20, peaks

    @given(flow_files(), st.sampled_from(["", "\ufeff"]), st.sampled_from([1, 2, 3, LINES_PER_BLOCK]),
           st.sampled_from([0, 1, SPARSE_REFUSALS]), st.sampled_from([1, DENSE_BLOCKS]))
    @settings(max_examples=300, deadline=None)
    def test_loader_matches_reference(self, tmp_path_factory, text, bom, block, sparse, dense):
        # Short blocks put each kind of line at the first and last line of
        # a block, and a quoted line break across two; a short sparse run
        # sends refused rows' neighbours back to np.loadtxt.
        path = tmp_path_factory.getbasetemp() / "loaded.csv"
        path.write_bytes((bom + text).encode("utf-8"))
        with mock.patch.multiple(
            ingestion, LINES_PER_BLOCK=block, SPARSE_REFUSALS=sparse, DENSE_BLOCKS=dense
        ):
            assert_loads_as_reference(path, text)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("ragged", [None, 0, -1])
    def test_loader_matches_reference_across_blocks(self, tmp_path, ragged, dense):
        # Four blocks and three rows, with "n/a" and "Infinity" on the first
        # and last line of a block, and a row that is one field short on the
        # first or last line of the fourth block. Dense: "n/a" on every third
        # row of the first block, so the blocks after it are read per cell.
        n = LINES_PER_BLOCK
        rows = [[f"{i}.25", str(i % 7), ("BENIGN", "DoS Hulk")[i % 2], WEEKDAYS[i % 5]]
                for i in range(4 * n + 3)]
        for i, cell in ((0, "n/a"), (n - 1, "n/a"), (n, "Infinity"), (2 * n - 1, "n/a"),
                        (2 * n, "-Infinity"), (3 * n - 1, "Infinity")):
            rows[i][i % 2] = cell
        for i in range(1, n - 1, 3) if dense else ():
            rows[i][0] = "n/a"
        if ragged is not None:
            rows[3 * n + ragged % n].pop()
        text = "".join(csv_line(row) for row in [["f1", "f2", "Label", "Day"], *rows])
        path = tmp_path / "flows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_loads_as_reference(path, text)


class TestClassMapping:
    def test_known_raw_labels(self):
        mapped = map_attack_types(
            ["FTP-Patator", "DoS Hulk", "BENIGN", "Web Attack – Brute Force", "PortScan"]
        )
        assert mapped == ("BruteForce", "DoS", "benign", "WebAttack", "PortScan")

    def test_case_and_dash_insensitive(self):
        assert map_attack_types(["ssh-patator"]) == ("BruteForce",)
        assert map_attack_types(["DOS  GOLDENEYE"]) == ("DoS",)

    def test_unmapped_label_flagged(self):
        assert map_attack_types(["QuantumExfil"]) == (UNKNOWN_CLASS,)

    def test_override_wins(self):
        mapped = map_attack_types(["QuantumExfil"], {"quantumexfil": "Infiltration"})
        assert mapped == ("Infiltration",)

    def test_binary_labels(self):
        labels = binary_labels(("benign", "DoS", UNKNOWN_CLASS, "benign"))
        assert labels.tolist() == [0, 1, 1, 0]

    def test_override_file(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("raw,class\nQuantum-Exfil,Infiltration\n")
        override = load_class_map_override(path)
        assert override == {"quantum exfil": "Infiltration"}

    def test_override_file_with_utf8_bom(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("\ufeffraw,class\nQuantum-Exfil,Infiltration\n", encoding="utf-8")
        assert load_class_map_override(path) == {"quantum exfil": "Infiltration"}

    def test_override_bad_header(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("from,to\na,b\n")
        with pytest.raises(ParseError, match="raw,class"):
            load_class_map_override(path)

    def test_override_empty_field(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("raw,class\nx,\n")
        with pytest.raises(ParseError, match="row 2"):
            load_class_map_override(path)

    def test_override_repeated_raw_label_rejected(self, tmp_path):
        # the second row matches the first once case and dashes are ignored
        path = tmp_path / "map.csv"
        path.write_text("raw,class\nPortScan,DoS\nBot,Bot\nportscan,Bot\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_class_map_override(path)
        assert str(err.value) == f"{path}: raw label 'portscan' at row 4 repeats row 2"


class TestNormalization:
    def test_min_max_scaling(self):
        stats = fit_normalization(np.array([[0.0], [5.0], [10.0]]))
        scaled = apply_normalization(np.array([[0.0], [5.0], [10.0]]), stats)
        np.testing.assert_allclose(scaled.ravel(), [0.0, 0.5, 1.0])

    def test_constant_feature_collapses_to_zero(self):
        stats = fit_normalization(np.array([[3.0], [3.0]]))
        scaled = apply_normalization(np.array([[3.0], [7.0]]), stats)
        np.testing.assert_allclose(scaled.ravel(), [0.0, 0.0])

    def test_out_of_range_clips(self):
        stats = fit_normalization(np.array([[0.0], [10.0]]))
        scaled = apply_normalization(np.array([[-5.0], [15.0]]), stats)
        np.testing.assert_allclose(scaled.ravel(), [0.0, 1.0])

    def test_feature_count_mismatch(self):
        stats = fit_normalization(np.array([[0.0, 1.0]]))
        with pytest.raises(ValidationError):
            apply_normalization(np.zeros((2, 3)), stats)

    def test_normalize_reuses_given_stats(self):
        stats = fit_normalization(np.array([[0.0], [10.0]]))
        scaled = apply_normalization(np.array([[5.0]]), stats)
        np.testing.assert_allclose(scaled.ravel(), [0.5])

    def test_norm_stats_shape_check(self):
        with pytest.raises(ValidationError):
            NormStats(np.zeros(2), np.zeros(3))


def labeled_dataset(n, attack_positions, days=None):
    features = np.arange(n * 2, dtype=float).reshape(n, 2)
    classes = ["DoS" if i in attack_positions else "benign" for i in range(n)]
    labels = tuple("DoS Hulk" if c == "DoS" else "BENIGN" for c in classes)
    ds = FlowDataset(features, ("f1", "f2"), labels, days=days)
    return ds, classes


class TestSplit:
    def test_day_based_selected_when_train_has_attacks(self):
        days = tuple(WEEKDAYS[i % 5] for i in range(20))
        attacks = {0, 1, 5, 6, 12, 17}  # Monday and Tuesday rows included
        ds, classes = labeled_dataset(20, attacks, days=days)
        result = split(ds, classes, SplitSpec(), 42)
        assert result.mode_used is SplitMode.DAY_BASED
        assert all(days[i] in ("Monday", "Tuesday") for i in result.train_idx)
        assert all(days[i] == "Wednesday" for i in result.val_idx)
        assert all(days[i] in ("Thursday", "Friday") for i in result.test_idx)

    def test_falls_back_when_train_days_are_benign(self):
        days = tuple(WEEKDAYS[i % 5] for i in range(40))
        attacks = {i for i in range(40) if days[i] == "Thursday"}
        ds, classes = labeled_dataset(40, attacks, days=days)
        result = split(ds, classes, SplitSpec(), 42)
        assert result.mode_used is SplitMode.STRATIFIED

    def test_stratified_partitions_exactly(self):
        ds, classes = labeled_dataset(40, set(range(8)))
        result = split(ds, classes, SplitSpec(mode=SplitMode.STRATIFIED), 42)
        merged = np.sort(
            np.concatenate([result.train_idx, result.val_idx, result.test_idx])
        )
        assert np.array_equal(merged, np.arange(40))

    def test_stratified_respects_fractions_per_class(self):
        ds, classes = labeled_dataset(100, set(range(20)))
        result = split(ds, classes, SplitSpec(mode=SplitMode.STRATIFIED), 42)
        train_classes = [classes[i] for i in result.train_idx]
        assert train_classes.count("DoS") == 10
        assert train_classes.count("benign") == 40

    def test_same_seed_reproduces(self):
        ds, classes = labeled_dataset(200, set(range(40)))
        a = split(ds, classes, SplitSpec(mode=SplitMode.STRATIFIED), 7)
        b = split(ds, classes, SplitSpec(mode=SplitMode.STRATIFIED), 7)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.val_idx, b.val_idx)
        assert np.array_equal(a.test_idx, b.test_idx)
        c = split(ds, classes, SplitSpec(mode=SplitMode.STRATIFIED), 8)
        assert not np.array_equal(a.train_idx, c.train_idx)

    def test_day_based_requires_day_tags(self):
        ds, classes = labeled_dataset(10, {0})
        with pytest.raises(ValidationError):
            split(ds, classes, SplitSpec(mode=SplitMode.DAY_BASED), 42)

    def test_unknown_day_tag_rejected(self):
        ds, classes = labeled_dataset(2, {0}, days=("Monday", "Someday"))
        with pytest.raises(ValidationError, match="Someday"):
            split(ds, classes, SplitSpec(mode=SplitMode.DAY_BASED), 42)

    def test_label_count_mismatch(self):
        ds, classes = labeled_dataset(10, {0})
        with pytest.raises(ValidationError):
            split(ds, classes[:-1], SplitSpec(), 42)

    def test_tiny_class_goes_to_train(self, caplog):
        import logging

        ds, classes = labeled_dataset(12, {3})
        with caplog.at_level(logging.WARNING):
            result = split(ds, classes, SplitSpec(mode=SplitMode.STRATIFIED), 42)
        assert 3 in result.train_idx
        assert any("fewer than 3" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "fractions",
        [(0.5, 0.2, 0.2), (0.5, -0.1, 0.6), (0.5, 0.5), (0.7, 0.3, 0.0), (0.0, 0.5, 0.5),
         (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, math.inf, 0.5), (-math.inf, 1.0, 1.0)],
    )
    def test_bad_fractions(self, fractions):
        with pytest.raises(ValidationError):
            SplitSpec(fractions=fractions)


class TestClassCounts:
    def test_largest_remainder_hand_case(self):
        config = SynthConfig(
            n_flows=100,
            attack_fraction=0.2,
            class_weights={"DoS": 1.0, "PortScan": 1.0, "Bot": 1.0},
        )
        assert class_counts(config) == {"Bot": 7, "DoS": 7, "PortScan": 6}

    def test_default_counts_sum(self):
        counts = class_counts(SynthConfig())
        assert sum(counts.values()) == 1000
        assert set(counts) == set(DEFAULT_CLASS_MIX)
        assert all(v > 0 for v in counts.values())


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_flows": 0},
            {"attack_fraction": 1.5},
            {"separation": -1.0},
            {"separation": math.nan},
            {"separation": math.inf},
            {"attack_flag_sd": -1.0},
            {"benign_outlier_sd": -0.5},
            {"attack_flag_sd": math.nan},
            {"attack_flag_level": math.inf},
            {"benign_outlier_level": math.nan},
            {"benign_outlier_sd": math.inf},
            {"attack_fraction": math.nan},
            {"attack_detectable_rate": 1.2},
            {"benign_outlier_rate": -0.1},
            {"class_weights": {}},
            {"class_weights": {"Ransomware": 1.0}},
            {"class_weights": {"DoS": -1.0}},
            {"class_weights": {"DoS": 1.0}, "class_flag_factor": {"Bot": 1.0}},
            {"class_flag_factor": dict(DEFAULT_CLASS_MIX, DoS=0.0)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, defaults",
        [("class_weights", DEFAULT_CLASS_MIX), ("class_flag_factor", DEFAULT_CLASS_FLAG_FACTOR)],
    )
    def test_mapping_values_must_be_finite(self, name, defaults, value):
        # a NaN weight used to load and then fail inside synth_generate
        with pytest.raises(ValidationError, match=rf"^{name} must be finite, got {value!r}$"):
            SynthConfig(**{name: dict(defaults, DoS=value)})


class TestSynthGenerate:
    def test_schema_and_counts(self):
        config = SynthConfig(n_flows=200)
        ds = synth_generate(config, 1)
        assert len(ds) == 200
        assert ds.feature_names == STRONG_FEATURE_NAMES + FLAG_FEATURE_NAMES
        assert set(ds.days) <= set(WEEKDAYS)
        mapped = map_attack_types(ds.labels)
        assert UNKNOWN_CLASS not in mapped
        expected = class_counts(config)
        for cls in expected:
            assert mapped.count(cls) == expected[cls]
        assert mapped.count("benign") == 200 - sum(expected.values())

    def test_same_seed_is_byte_identical(self, tmp_path):
        config = SynthConfig(n_flows=150)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        rows = np.arange(config.n_flows)
        write_flow_csv(synth_generate(config, 9), rows, first, header_comment="seed=9")
        write_flow_csv(synth_generate(config, 9), rows, second, header_comment="seed=9")
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_differs(self):
        a = synth_generate(SynthConfig(n_flows=100), 1)
        b = synth_generate(SynthConfig(n_flows=100), 2)
        assert not np.array_equal(a.features, b.features)

    def test_round_trips_through_csv(self, tmp_path):
        ds = synth_generate(SynthConfig(n_flows=60), 3)
        path = tmp_path / "synth.csv"
        write_flow_csv(ds, np.arange(len(ds)), path)
        loaded, report = load_csv(path)
        assert report.rows_dropped == 0
        assert loaded.labels == ds.labels
        assert loaded.days == ds.days
        np.testing.assert_allclose(loaded.features, ds.features, rtol=1e-4, atol=1e-6)

    def test_zero_separation_removes_strong_signal(self):
        # with separation off, the strong columns carry nothing and the
        # detector lands near the random-guess ceiling for a 20% base rate
        d_strong = len(STRONG_FEATURE_NAMES)

        def strong_f1(separation):
            ds = synth_generate(SynthConfig(n_flows=600, separation=separation), 42)
            y = binary_labels(map_attack_types(ds.labels))
            X = ds.features[:, :d_strong]
            model = train_lr(X, y)
            predicted = model.predict_proba(X) >= ATTACK_THRESHOLD
            return DetectorReport.from_predictions(y, predicted).f1

        noise_f1 = strong_f1(0.0)
        separated_f1 = strong_f1(3.2)
        assert noise_f1 < 0.45
        assert separated_f1 > noise_f1 + 0.3

    def test_attack_classes_cover_table(self):
        # every synthetic class has a severity profile in the bundled catalog
        assert set(DEFAULT_CLASS_MIX) <= set(load_catalog())
