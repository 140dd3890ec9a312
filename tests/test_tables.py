"""The shared table rules hold for every reader of an input file, and the
vector text kernel writes the bytes of ``%``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzztriage.alerts import Alert, AttackClassProfile, load_alerts_csv, load_catalog
from fuzztriage.detector import load_external_scores, load_model
from fuzztriage.errors import ParseError
from fuzztriage.ingestion import load_class_map_override, load_csv
from fuzztriage.tables import ROWS_PER_WRITE, format_g, g_rows

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
        lambda r: r == [Alert("a1", "DoS", 0.5, label=1)],
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

    def test_missing_file(self, tmp_path, name):
        reader = READERS[name][0]
        with pytest.raises(ParseError, match="not found"):
            reader(tmp_path / "absent.csv")


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_bytes(b"f1,Label\n1.0,Web Attack \x96 Brute Force\n")  # cp1252 en dash
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)


def g_texts(values, precision):
    texts = format_g(np.array(values, dtype=np.float64), precision)
    spans = zip(texts.begin.tolist(), texts.end.tolist())
    return [texts.chars[b:e, i].tobytes().decode() for i, (b, e) in enumerate(spans)]


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

    def test_shape_is_flattened_in_c_order(self):
        values = np.array([[1.5, -0.25, 3e-7], [0.0, 12345678.0, math.nan]])
        assert g_texts(values, 6) == ["1.5", "-0.25", "3e-07", "0", "1.23457e+07", "nan"]
        assert g_texts(np.empty((0, 3)), 6) == []

    def test_rows_across_chunks(self):
        values = np.random.default_rng(16).lognormal(0, 8, (2 * ROWS_PER_WRITE + 1, 3))
        expected = ["".join("%.10g," % v for v in row) for row in values.tolist()]
        assert g_rows(values, 10) == expected
        assert g_rows(np.empty((0, 2)), 6) == []
