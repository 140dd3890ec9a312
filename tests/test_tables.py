"""The shared table rules hold for every reader of an input file."""

import pytest

from fuzztriage.alerts import Alert, AttackClassProfile, load_alerts_csv, load_catalog
from fuzztriage.detector import load_external_scores, load_model
from fuzztriage.errors import ParseError
from fuzztriage.ingestion import load_class_map_override, load_csv

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

