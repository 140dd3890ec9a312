"""The shared table rules hold for every reader of an input file, the
vector text kernel writes the bytes of ``%``, and the row writer writes the
bytes of ``csv.writer``."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fuzztriage.alerts import AttackClassProfile, load_alerts_csv, load_catalog
from fuzztriage.detector import load_external_scores, load_model
from fuzztriage.errors import ParseError
from fuzztriage.ingestion import load_class_map_override, load_csv
from fuzztriage.tables import FORMAT_BLOCK, PAD, ROWS_PER_WRITE, format_g, g_width, write_rows

# reader, header (spaced or in another case), data rows, check of the result
READERS = {
    "flows": (
        load_csv, " f1 , Label ", ["1.5,DoS Hulk", "2.5,BENIGN"],
        lambda r: r[0].features.tolist() == [[1.5], [2.5]]
        and r[0].labels == ("DoS Hulk", "BENIGN"),
    ),
    "class_map": (
        load_class_map_override, " RAW , Class ", ["Quantum-Exfil,Infiltration"],
        lambda r: r == {"quantum exfil": "Infiltration"},
    ),
    "catalog": (
        load_catalog, "Class, CVSS ,UF", ["DoS,7.5,0.2"],
        lambda r: r == {"DoS": AttackClassProfile("DoS", 7.5, 0.2)},
    ),
    "alerts": (
        load_alerts_csv, "ID,Attack_Class,P,Label,Criticality", ["a1,DoS,0.5,1,"],
        lambda r: r == {"ids": ["a1"], "classes": ["DoS"], "p": [0.5], "labels": [1],
                        "criticalities": [None]},
    ),
    "scores": (
        load_external_scores, " Id , P ", ["flow-1,0.9"],
        lambda r: r == {"flow-1": 0.9},
    ),
    "model": (
        load_model, "Term,Value", ["w:a,1.5", "bias,0.25"],
        lambda r: r.weights.tolist() == [1.5] and r.bias == 0.25 and r.feature_names == ("a",),
    ),
}


def write_table(path, header, rows):
    text = "\ufeff# config_hash=abc seed=1\n\n" + header + "\n" + "\n\n".join(rows) + "\n"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("name", READERS)
class TestSharedRules:
    def test_bom_stamp_blank_lines_and_loose_header(self, tmp_path, name):
        reader, header, rows, check = READERS[name]
        result = reader(write_table(tmp_path / "t.csv", header, rows))
        assert check(result)

    def test_extra_field_names_the_row(self, tmp_path, name):
        reader, header, rows, _ = READERS[name]
        width = header.count(",") + 1
        rows = rows[:-1] + [rows[-1] + ",junk"]
        path = write_table(tmp_path / "t.csv", header, rows)
        # blank and comment rows are not counted; the header is row 1
        expected = f"row {len(rows) + 1} has {width + 1} fields, expected {width}"
        with pytest.raises(ParseError, match=expected):
            reader(path)

    @pytest.mark.parametrize("quote", ['"', ""])
    def test_field_past_the_size_limit_names_the_row(self, tmp_path, name, quote):
        # csv.reader refuses the field; the process-wide limit is left as it is
        reader, header, rows, _ = READERS[name]
        limit = csv.field_size_limit()
        long = quote + "x" * (limit + 10) + quote
        rows = rows + [rows[0].rsplit(",", 1)[0] + "," + long]
        path = write_table(tmp_path / "t.csv", header, rows)
        expected = f"{path}: row {len(rows) + 1}: field larger than field limit ({limit})"
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == expected
        assert csv.field_size_limit() == limit

    def test_missing_file(self, tmp_path, name):
        reader = READERS[name][0]
        with pytest.raises(ParseError, match="not found"):
            reader(tmp_path / "absent.csv")


# keyed reader, header, what a row gives, a bad row and its reason, and rows
# whose last repeats the key of the first
KEYED = {
    "class_map": (
        load_class_map_override, "raw,class", "raw label", ("x,", "empty field"),
        ["Port-Scan,DoS", "Bot,Bot", " port  scan ,Bot"], "port scan",
    ),
    "catalog": (
        load_catalog, "class,cvss,uf", "catalog class",
        ("Bot,high,0.2", "could not convert string to float: 'high'"),
        ["DoS,7.8,0.2", " DoS ,5.0,0.1"], "DoS",
    ),
    "alerts": (
        load_alerts_csv, "id,attack_class,p,label,criticality", "alert",
        ("b,DoS,1.5,,", "p must lie in [0, 1], got 1.5"), ["a,DoS,0.5,,", "a,Bot,0.6,,"], "a",
    ),
    "scores": (
        load_external_scores, "id,p", "score", ("b,1.2", "p must lie in [0, 1], got 1.2"),
        ["a,0.5", "a ,0.6"], "a",
    ),
    "model": (
        load_model, "term,value", "model term", ("gamma,2.0", "unknown term 'gamma'"),
        ["w:a,1.0", "bias,0.0", "w:a,2.0"], "w:a",
    ),
}


@pytest.mark.parametrize("name", KEYED)
class TestKeyedRows:
    def test_bad_row(self, tmp_path, name):
        reader, header, what, (bad, reason), rows, _ = KEYED[name]
        path = write_table(tmp_path / "t.csv", header, [rows[0], bad])
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == f"{path}: bad {what} row 3: {reason}"

    def test_repeated_key(self, tmp_path, name):
        reader, header, what, _, rows, key = KEYED[name]
        path = write_table(tmp_path / "t.csv", header, rows)
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == f"{path}: {what} {key!r} at row {len(rows) + 1} repeats row 2"


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_bytes(b"f1,Label\n1.0,Web Attack \x96 Brute Force\n")  # cp1252 en dash
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)


def g_texts(values, precision):
    """The text in each row of format_g's matrix, which must be PADs, one
    run of bytes with no PAD and no NUL in it, then PADs."""
    values = np.array(values, dtype=np.float64)
    chars = format_g(values, precision)
    assert chars.dtype == np.uint8 and chars.shape == (values.size, g_width(precision))
    texts = [row.tobytes().strip(bytes([PAD])) for row in chars]
    assert all(text and PAD not in text and b"\0" not in text for text in texts)
    return [text.decode() for text in texts]


def written_rows(tmp_path, values, precision):
    """The data rows write_rows writes for one float column, beside the rows
    ``csv.writer`` writes for the ``%`` texts of the same values."""
    path = tmp_path / "rows.csv"
    write_rows(path, None, ["x"], [((values, precision), np.arange(len(values)))])
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([["%.*g" % (precision, v) for v in row] for row in values.tolist()])
    return path.read_bytes().decode("utf-8").split("\r\n", 1)[1], expected.getvalue()


# Any double, or a 3-decimal one: at 6 and 10 significant digits those are
# often within an ulp of a decimal tie (1125.575 is 1125.57499999999993...).
doubles = st.floats() | st.integers(-10**10, 10**10).map(lambda k: k / 1000)


class TestFormatG:
    @given(st.lists(doubles, min_size=1, max_size=30))
    @example([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan])
    @example([9.99999e-05, 0.0001, 999999.4, 999999.5, 1e16, 1e100, 1.7976931348623157e308])
    @example([1125.575, 1946.455, 100000.5, 2.5])
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_percent_format(self, values):
        for precision in (6, 10):
            assert g_texts(values, precision) == ["%.*g" % (precision, v) for v in values]

    def test_many_values(self):
        rng = np.random.default_rng(15)
        values = np.concatenate([
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),  # every exponent
            np.round(rng.uniform(-1e4, 1e4, 20_000), 3),  # decimal near-ties
        ])
        for precision in (1, 6, 10, 15):
            assert g_texts(values, precision) == ["%.*g" % (precision, v) for v in values.tolist()]

    @pytest.mark.parametrize("n", [FORMAT_BLOCK - 1, FORMAT_BLOCK, FORMAT_BLOCK + 1,
                                   2 * FORMAT_BLOCK + 3])
    def test_block_edges(self, n):
        # Zeros, inf, nan, huge and subnormal values and exact ties at 2, 6
        # and 10 digits, just before and just after each block edge.
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -5e-324, 1e-310,
                   0.125, -100000.5, 1234565.0, 12345678905.0]
        values = np.random.default_rng(n).lognormal(0, 8, n)
        for edge in (FORMAT_BLOCK, 2 * FORMAT_BLOCK):
            for start in (edge - len(special), edge):
                stop = min(start + len(special), n)
                values[start:stop] = special[:max(stop - start, 0)]
        for precision in (2, 6, 10):
            assert g_texts(values, precision) == ["%.*g" % (precision, v) for v in values.tolist()]

    def test_memory_stays_bounded(self):
        # The split and queue writers format up to 320k values at a time.
        values = np.random.default_rng(17).random(320_000)
        tracemalloc.start()
        try:
            format_g(values, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_shape_is_flattened_in_c_order(self):
        values = np.array([[1.5, -0.25, 3e-7], [0.0, 12345678.0, math.nan]])
        assert g_texts(values, 6) == ["1.5", "-0.25", "3e-07", "0", "1.23457e+07", "nan"]
        assert g_texts(np.empty((0, 3)), 6) == []

    def test_rows_across_chunks(self, tmp_path):
        values = np.random.default_rng(16).lognormal(0, 8, (2 * ROWS_PER_WRITE + 1, 3))
        written, expected = written_rows(tmp_path, values, 10)
        assert written == expected
        assert written_rows(tmp_path, np.empty((0, 2)), 6) == ("", "")

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                  elements=doubles))
    @example(np.array([[0.0, -0.0, 5e-324, -2.225e-308], [math.inf, -math.inf, math.nan, 1.0]]))
    @example(np.empty((0, 3)))
    @example(np.empty((3, 0)))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_percent_format(self, tmp_path_factory, values):
        for precision in (6, 10):
            written, expected = written_rows(tmp_path_factory.getbasetemp(), values, precision)
            assert written == expected
