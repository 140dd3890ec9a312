"""Reliability calibration: class metrics, heights, persistence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzztriage.calibration import (
    HEIGHT_FLOOR,
    CalibrationRow,
    HeightParams,
    build_height_table,
    class_height,
    class_metrics,
    heights_from_f1,
    instance_height,
    per_class_counts,
    write_calibration_csv,
)
from fuzztriage.errors import ValidationError


class TestClassMetrics:
    def test_worked_counts(self):
        m = class_metrics(45, 35, 15)
        assert m.precision == pytest.approx(0.5625, abs=1e-10)
        assert m.recall == pytest.approx(0.75, abs=1e-10)
        assert m.f1 == pytest.approx(0.6429, abs=1e-4)

    def test_all_zero_counts(self):
        m = class_metrics(0, 0, 0)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_perfect_class(self):
        m = class_metrics(10, 0, 0)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [(-1, 0, 0), (0, -2, 0), (0, 0, -3)])
    def test_negative_counts_rejected(self, bad):
        with pytest.raises(ValidationError):
            class_metrics(*bad)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            class_metrics(1.5, 0, 0)

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=200)
    def test_metric_ranges(self, tp, fp, fn):
        m = class_metrics(tp, fp, fn)
        for value in (m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0
        assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12


class TestClassHeight:
    def test_worked_f1(self):
        m = class_metrics(45, 35, 15)
        assert class_height(m.f1) == pytest.approx(0.6286, abs=5e-4)

    def test_neutral_fixed_point(self):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            assert class_height(0.5, HeightParams(alpha=alpha)) == 0.5

    def test_upper_clamp(self):
        assert class_height(1.0) == 0.95

    def test_lower_clamp(self):
        assert class_height(0.0) == pytest.approx(0.05)

    def test_out_of_range_f1(self):
        with pytest.raises(ValidationError):
            class_height(1.2)

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            HeightParams(alpha=0.0)
        with pytest.raises(ValidationError):
            HeightParams(h_min=0.5, h_max=0.4)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_clipped_into_bounds(self, f1, alpha):
        params = HeightParams(alpha=alpha)
        h = class_height(f1, params)
        assert params.h_min <= h <= params.h_max

    @given(st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=100)
    def test_monotone_in_f1(self, f1):
        assert class_height(f1) <= class_height(min(f1 + 0.01, 1.0)) + 1e-12


class TestInstanceHeight:
    def test_probability_above_class(self):
        assert instance_height(0.7992, 0.9872) == 0.7992

    def test_probability_below_class(self):
        assert instance_height(0.7992, 0.3796) == 0.3796

    def test_equal(self):
        assert instance_height(0.5, 0.5) == 0.5

    def test_zero_probability_floor(self):
        assert instance_height(0.9, 0.0) == HEIGHT_FLOOR

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            instance_height(0.0, 0.5)
        with pytest.raises(ValidationError):
            instance_height(0.5, 1.5)

    def test_elementwise(self):
        heights = instance_height(np.array([0.7992, 0.7992, 0.9]), np.array([0.9872, 0.3796, 0.0]))
        assert heights.tolist() == [0.7992, 0.3796, HEIGHT_FLOOR]
        with pytest.raises(ValidationError, match="got 1.5"):
            instance_height(np.array([0.5, 0.5]), np.array([0.2, 1.5]))
        with pytest.raises(ValidationError, match="h_class .* got 0.0"):
            instance_height(np.array([0.5, 0.0]), 0.5)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_cap_and_floor(self, h_class, p):
        h = instance_height(h_class, p)
        assert HEIGHT_FLOOR <= h <= h_class
        assert h <= max(p, HEIGHT_FLOOR)


class TestPerClassCounts:
    def test_pooled_attribution(self):
        # false positives count against the class the alert claimed
        classes = ["DoS", "DoS", "DoS", "benign", "PortScan"]
        labels = [1, 1, 0, 0, 1]
        preds = [1, 0, 1, 1, 1]
        counts = per_class_counts(classes, labels, preds)
        assert counts["DoS"] == (1, 1, 1)
        assert counts["benign"] == (0, 1, 0)
        assert counts["PortScan"] == (1, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            per_class_counts(["a"], [1, 0], [1])

    def test_true_negatives_ignored(self):
        counts = per_class_counts(["benign"], [0], [0])
        assert counts["benign"] == (0, 0, 0)


class TestHeightTable:
    def test_build_sorted_rows(self):
        table = build_height_table({"DoS": (45, 35, 15), "Bot": (10, 0, 0)})
        assert list(table) == ["Bot", "DoS"]
        assert table["Bot"].h_class == 0.95
        assert table["DoS"].h_class == pytest.approx(0.6286, abs=5e-4)

    def test_heights_from_f1_matches_table(self):
        table = build_height_table({"DoS": (45, 35, 15)})
        redone = heights_from_f1({"DoS": table["DoS"].metrics.f1})
        assert redone["DoS"] == table["DoS"].h_class

    def test_csv_header_stamp(self, tmp_path):
        table = build_height_table({"DoS": (45, 35, 15), "Bot": (3, 1, 2)})
        path = tmp_path / "heights.csv"
        write_calibration_csv(path, table, header_comment="config_hash=abc seed=1")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc seed=1"
        assert lines[1] == "class,tp,fp,fn,precision,recall,f1,h_class"
        assert [line.split(",")[0] for line in lines[2:]] == ["Bot", "DoS"]


def test_calibration_row_is_frozen():
    row = CalibrationRow("DoS", class_metrics(1, 0, 0), 0.95)
    with pytest.raises(AttributeError):
        row.h_class = 0.5
