"""Fuzzy-number primitives: construction and the ranking index."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from fuzztriage.errors import ValidationError
from fuzztriage.sgfn import (
    PENALTY_LOG_BASE,
    GaussianFuzzyNumber,
    ranking_index,
)

# strategies over valid parameter ranges
cores = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
spreads = st.floats(min_value=1e-6, max_value=50.0, allow_nan=False)
heights = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def fuzzy_numbers() -> st.SearchStrategy[GaussianFuzzyNumber]:
    return st.builds(GaussianFuzzyNumber, cores, spreads, heights)


class TestConstruction:
    def test_valid(self):
        n = GaussianFuzzyNumber(6.0, 0.9, 0.626)
        assert (n.core, n.spread, n.height) == (6.0, 0.9, 0.626)

    @pytest.mark.parametrize("spread", [0.0, -1.0, math.inf, math.nan])
    def test_bad_spread(self, spread):
        with pytest.raises(ValidationError):
            GaussianFuzzyNumber(1.0, spread, 0.5)

    @pytest.mark.parametrize("height", [0.0, -0.1, 1.5, math.nan])
    def test_bad_height(self, height):
        with pytest.raises(ValidationError):
            GaussianFuzzyNumber(1.0, 1.0, height)

    def test_bad_core(self):
        with pytest.raises(ValidationError):
            GaussianFuzzyNumber(math.inf, 1.0, 0.5)


class TestRankingIndex:
    def test_table_row_at_kappa_one(self):
        # frozen: 7.2504 + 1.4706 * log10(0.3796), scalar evaluation
        n = GaussianFuzzyNumber(7.2504, 1.4706, 0.3796)
        assert ranking_index(n, 1.0) == pytest.approx(6.6316, abs=5e-4)

    @given(fuzzy_numbers())
    @settings(max_examples=100)
    def test_kappa_zero_is_core(self, n):
        assert ranking_index(n, 0.0) == n.core

    def test_full_height_no_penalty(self):
        assert ranking_index(GaussianFuzzyNumber(5.0, 2.0, 1.0), 2.0) == 5.0

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValidationError):
            ranking_index(GaussianFuzzyNumber(5.0, 2.0, 0.8), -0.5)

    def test_penalty_base_is_ten(self):
        assert PENALTY_LOG_BASE == 10.0
        n = GaussianFuzzyNumber(0.0, 1.0, 0.1)
        assert ranking_index(n, 1.0) == pytest.approx(-1.0, abs=1e-12)

    @given(fuzzy_numbers(), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=200)
    def test_penalty_never_rewards(self, n, kappa):
        # height <= 1 means log is <= 0, so the index never exceeds the core
        assert ranking_index(n, kappa) <= n.core + 1e-12

    @given(cores, spreads, st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=100)
    def test_monotone_in_height(self, core, spread, kappa):
        low = ranking_index(GaussianFuzzyNumber(core, spread, 0.3), kappa)
        high = ranking_index(GaussianFuzzyNumber(core, spread, 0.9), kappa)
        assert low <= high + 1e-12
