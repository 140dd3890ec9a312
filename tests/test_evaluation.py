"""Relevance, NDCG, bands, bootstrap, scenarios, sensitivity sweep."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import alert_columns, make_batch, make_record, random_batch
from fuzztriage.alerts import AttackClassProfile, CfMode, Criticality, assemble, load_catalog
from fuzztriage.calibration import HeightParams, heights_from_f1, instance_height
from fuzztriage.config import EvaluationConfig
from fuzztriage.errors import EvaluationError, ValidationError
from fuzztriage.evaluation import (
    BOOTSTRAP_BLOCK,
    Band,
    BootstrapResult,
    ScenarioKind,
    ScenarioResult,
    ScenarioSpec,
    SWEEP_CUTOFFS,
    SweepPoint,
    SweepReport,
    _percentiles,
    apply_scenario,
    band_eval,
    dcg_at_k,
    ndcg_at_k,
    ndcg_of_queue,
    paired_bootstrap,
    perturb,
    predicted_queue,
    queue_relevances,
    relevance,
    scenario_eval,
    sensitivity_sweep,
)
from fuzztriage.ranking import Method, RiskProfile, rank
from fuzztriage.sgfn import GaussianFuzzyNumber, ranking_index


class TestRelevance:
    def test_true_attack_discounted_core(self):
        record = make_record("a", 6.0, 0.9, 0.6, 0.8, label=1, uf=0.15)
        assert relevance(make_batch([record]))[0] == pytest.approx(5.1)

    def test_false_positive_is_zero(self):
        record = make_record("a", 6.0, 0.9, 0.6, 0.8, label=0)
        assert relevance(make_batch([record]))[0] == 0.0

    def test_zero_core_attack_is_zero(self):
        record = make_record("a", 0.0, 1e-6, 0.6, 0.8, label=1)
        assert relevance(make_batch([record]))[0] == 0.0

    def test_missing_label_rejected(self):
        record = make_record("a", 6.0, 0.9, 0.6, 0.8, label=None)
        with pytest.raises(EvaluationError, match="'a' has no ground-truth label"):
            relevance(make_batch([make_record("b", 6.0, 0.9, 0.6, 0.8), record]))

    def test_by_id_map(self):
        records = make_batch([
            make_record("x", 4.0, 0.6, 0.9, 0.9, label=1, uf=0.25),
            make_record("y", 8.0, 1.2, 0.9, 0.9, label=0),
        ])
        rel = relevance(records)
        assert rel.shape == (2,)
        assert dict(zip(records.ids, rel)) == {"x": pytest.approx(3.0), "y": 0.0}


def brute_force_ndcg(rels, k):
    best = max(dcg_at_k(list(perm), k) for perm in itertools.permutations(rels))
    if best == 0.0:
        return 0.0
    return dcg_at_k(rels, k) / best


class TestNdcg:
    def test_two_item_hand_value(self):
        assert dcg_at_k([0.0, 3.0], 2) == pytest.approx(4.4165, abs=1e-4)
        assert ndcg_at_k([0.0, 3.0], 2) == pytest.approx(0.6309, abs=1e-4)

    def test_sorted_descending_is_perfect(self):
        assert ndcg_at_k([5.0, 3.0, 1.0, 0.0], 4) == pytest.approx(1.0)

    def test_all_zero_scores_zero(self):
        assert ndcg_at_k([0.0, 0.0, 0.0], 3) == 0.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            dcg_at_k([1.0], 0)

    def test_k_beyond_length_uses_all(self):
        assert dcg_at_k([1.0, 2.0], 10) == pytest.approx(dcg_at_k([1.0, 2.0], 2))

    def test_empty_is_zero(self):
        assert dcg_at_k([], 3) == 0.0
        assert ndcg_at_k([], 3) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_permutation_oracle(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 6))
        rels = [float(v) for v in gen.uniform(0.0, 6.0, size=n)]
        rels = [0.0 if gen.random() < 0.3 else v for v in rels]
        for k in (1, max(1, n - 1), n):
            assert ndcg_at_k(rels, k) == pytest.approx(
                brute_force_ndcg(rels, k), abs=1e-12
            )


class TestQueueMetrics:
    def test_queue_relevances_align_with_ranks(self, rng):
        records = random_batch(rng, 12)
        rel = relevance(records)
        queue = rank(records, Method.SEVERITY_ONLY)
        rels = queue_relevances(queue, rel)
        rel_by_id = dict(zip(records.ids, rel.tolist()))
        assert rels.tolist() == [rel_by_id[i] for i in queue.ids()]

    def test_unknown_id_rejected(self, rng):
        records = random_batch(rng, 5)
        queue = rank(records, Method.SEVERITY_ONLY)
        rel = relevance(make_batch(list(records)[:-1]))
        with pytest.raises(EvaluationError, match="4 relevance values for a batch of 5"):
            queue_relevances(queue, rel)

    def test_severity_queue_with_uniform_uf_is_perfect(self):
        records = make_batch(
            make_record(f"a{i}", float(c), float(c) * 0.2, 0.9, 0.9, label=1, uf=0.2)
            for i, c in enumerate([9.0, 7.0, 5.0, 3.0])
        )
        queue = rank(records, Method.SEVERITY_ONLY)
        assert ndcg_of_queue(queue, relevance(records), 4) == pytest.approx(1.0)


class TestPredictedQueue:
    def test_mixed_batch_keeps_order_and_renumbers(self):
        records = make_batch([
            make_record("a", 9.0, 1.0, 0.9, 0.9),
            make_record("b", 8.0, 1.0, 0.9, 0.49),
            make_record("c", 7.0, 1.0, 0.9, 0.5),
            make_record("d", 6.0, 1.0, 0.9, 0.1),
        ])
        queue = predicted_queue(rank(records, Method.SEVERITY_ONLY))
        assert queue.ids() == ("a", "c")
        assert [e.rank for e in queue] == [1, 2]

    def test_all_below_threshold_is_empty(self):
        records = make_batch([make_record("a", 9.0, 1.0, 0.9, 0.4)])
        assert len(predicted_queue(rank(records, Method.SEVERITY_ONLY))) == 0


class TestBands:
    def test_half_open_semantics(self):
        band = Band(0.3, 0.5)
        assert band.contains(0.3)
        assert not band.contains(0.5)

    def test_closed_top_band(self):
        band = Band(0.7, 1.0, closed=True)
        assert band.contains(1.0)

    def test_default_band_edges(self):
        bands = EvaluationConfig().band_objects()
        assert [b.contains(0.5) for b in bands] == [False, True, False]
        assert [b.contains(0.29) for b in bands] == [False, False, False]
        assert [b.contains(1.0) for b in bands] == [False, False, True]

    @pytest.mark.parametrize("lo,hi", [(0.5, 0.5), (0.7, 0.3), (-0.1, 0.5), (0.5, 1.1)])
    def test_bad_bounds(self, lo, hi):
        with pytest.raises(ValidationError):
            Band(lo, hi)

    def test_single_true_positive_scores_one(self):
        records = make_batch([
            make_record("tp", 8.0, 1.2, 0.6, 0.6, label=1),
            make_record("out", 5.0, 1.0, 0.9, 0.9, label=1),
        ])
        queue = rank(records, Method.SEVERITY_ONLY)
        results = band_eval(queue, relevance(records), bands=[Band(0.5, 0.7)])
        assert results[0].count == 1
        assert results[0].ndcg == pytest.approx(1.0)

    def test_empty_band_reports_none(self):
        records = make_batch([make_record("a", 8.0, 1.2, 0.9, 0.9)])
        results = band_eval(
            rank(records, Method.SEVERITY_ONLY),
            relevance(records),
            EvaluationConfig().band_objects(),
        )
        assert results[0].count == 0 and results[0].ndcg is None
        assert results[1].count == 0 and results[1].ndcg is None
        assert results[2].count == 1

    def test_mid_band_confidence_only_below_risk_averse(self):
        # inside one band the detector's p ordering is anti-aligned with
        # relevance: confident benign noise above hesitant true attacks
        records = []
        for i in range(8):
            p = 0.52 + 0.005 * i
            records.append(
                make_record(f"atk-{i}", 8.0 + 0.1 * i, 1.6, p, p, label=1)
            )
        for i in range(8):
            p = 0.62 + 0.005 * i
            records.append(make_record(f"fp-{i}", 5.0, 1.0, p, p, label=0))
        records = make_batch(records)
        rel = relevance(records)
        band = [Band(0.5, 0.7)]
        co = band_eval(rank(records, Method.CONFIDENCE_ONLY), rel, bands=band)[0]
        ra = band_eval(rank(records, Method.RISK_AVERSE, RiskProfile(1.0)), rel, bands=band)[0]
        assert co.count == ra.count == 16
        assert co.ndcg < ra.ndcg


class TestPairedBootstrap:
    def test_queue_against_itself(self, rng):
        records = random_batch(rng, 30)
        rel = relevance(records)
        queue = rank(records, Method.RISK_AVERSE, RiskProfile(1.0))
        result = paired_bootstrap(queue, {"ra": queue}, rel, k=20, resamples=200, seed=1)["ra"]
        assert result.delta == 0.0
        assert result.p_value == 1.0
        assert result.ci_low <= result.delta <= result.ci_high

    def test_dominated_method_is_significant(self):
        records = []
        for i in range(20):
            p = 0.55 + 0.02 * i
            records.append(make_record(f"fp-{i}", 3.0, 0.6, p, p, label=0))
        for i in range(20):
            p = 0.50 + 0.001 * i
            records.append(
                make_record(f"atk-{i}", 7.0 + 0.1 * i, 1.4, 0.9, p, label=1)
            )
        records = make_batch(records)
        rel = relevance(records)
        co = rank(records, Method.CONFIDENCE_ONLY)
        so = rank(records, Method.SEVERITY_ONLY)
        result = paired_bootstrap(so, {"co": co}, rel, k=40, resamples=1000, seed=0)["co"]
        assert result.delta < 0.0
        assert result.p_value <= 0.05
        assert result.ci_low <= result.delta <= result.ci_high

    def test_mismatched_universe_rejected(self, rng):
        a = random_batch(rng, 10)
        b = make_batch(
            [*list(a)[:-1], make_record("intruder", core=5.0, spread=1.0, height=0.5, p=0.5)]
        )
        rel = relevance(a)
        with pytest.raises(EvaluationError, match="same alert universe"):
            paired_bootstrap(
                rank(b, Method.SEVERITY_ONLY), {"a": rank(a, Method.SEVERITY_ONLY)}, rel,
                k=10, resamples=50, seed=0,
            )

    def test_k_clamped_to_queue_length(self, rng):
        records = random_batch(rng, 8)
        rel = relevance(records)
        queue = rank(records, Method.SEVERITY_ONLY)
        result = paired_bootstrap(queue, {"so": queue}, rel, k=500, resamples=50, seed=2)["so"]
        assert result.k == 8

    def test_p_value_floor(self, rng):
        records = random_batch(rng, 10)
        rel = relevance(records)
        q1 = rank(records, Method.SEVERITY_ONLY)
        q2 = rank(records, Method.CONFIDENCE_ONLY)
        result = paired_bootstrap(q2, {"so": q1}, rel, k=10, resamples=100, seed=3)["so"]
        assert result.p_value >= 1.0 / 100


    def test_empty_mapping_draws_nothing(self, rng, monkeypatch):
        records = random_batch(rng, 10)
        queue = rank(records, Method.SEVERITY_ONLY)

        def no_draw(seed):
            raise AssertionError("paired_bootstrap drew resamples for no queue")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        assert paired_bootstrap(queue, {}, relevance(records), k=10, resamples=50, seed=0) == {}

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected_before_any_draw(self, rng, monkeypatch, k):
        records = random_batch(rng, 10)
        queue = rank(records, Method.SEVERITY_ONLY)

        def no_draw(seed):
            raise AssertionError("paired_bootstrap drew resamples for a bad k")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValidationError, match=rf"^k must be >= 1, got {k}$"):
            paired_bootstrap(queue, {"so": queue}, relevance(records), k=k, resamples=50, seed=0)

    def test_mismatched_universe_names_queue(self, rng):
        a = random_batch(rng, 10)
        b = make_batch([*list(a)[1:], make_record("intruder", 5.0, 1.0, 0.5, 0.5)])
        queues = {"same": rank(a, Method.CONFIDENCE_ONLY), "other": rank(b, Method.SEVERITY_ONLY)}
        with pytest.raises(EvaluationError, match="same alert universe; queue 'other'"):
            paired_bootstrap(
                rank(a, Method.SEVERITY_ONLY), queues, relevance(a), k=10, resamples=50, seed=0
            )

    def test_reordered_batch_rejected(self):
        # The same 40 alerts twice, the second time in reversed row order:
        # the queues list the same ids in the same order, but rel is aligned
        # with the rows of the first batch only.
        a = random_batch(np.random.default_rng(23), 40)
        b = make_batch(reversed(list(a)))
        qa, qb = rank(a, Method.SEVERITY_ONLY), rank(b, Method.SEVERITY_ONLY)
        assert qa.ids() == qb.ids()
        with pytest.raises(EvaluationError, match="same alert universe; queue 'b'"):
            paired_bootstrap(qa, {"b": qb}, relevance(a), k=20, resamples=200, seed=0)

    def test_queue_over_other_rows_of_the_batch_rejected(self, rng):
        records = random_batch(rng, 30)
        full = rank(records, Method.SEVERITY_ONLY)
        queues = {"pred": predicted_queue(rank(records, Method.CONFIDENCE_ONLY))}
        assert 0 < len(queues["pred"]) < len(full)
        with pytest.raises(EvaluationError, match="same alert universe; queue 'pred'"):
            paired_bootstrap(full, queues, relevance(records), k=10, resamples=50, seed=0)


def reference_paired_bootstrap(queue_a, queue_b, rel, *, k=500, resamples=1000, seed=0):
    """The two-queue bootstrap (A minus B) with its own draw per call;
    ``paired_bootstrap`` must give its results bit for bit."""
    if resamples < 1:
        raise ValidationError(f"resamples must be >= 1, got {resamples!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    if set(queue_a.ids()) != set(queue_b.ids()):
        raise EvaluationError("paired bootstrap requires queues over the same alert universe")
    k_eff = min(k, len(queue_a))
    if k_eff < 1:
        raise EvaluationError("paired bootstrap requires non-empty queues")
    gains = []
    for queue in (queue_a, queue_b):
        gains.append(np.exp2(queue_relevances(queue, rel)[:k_eff]) - 1.0)
    discounts = np.log2(np.arange(2, k_eff + 2, dtype=float))

    rng = np.random.default_rng(seed)
    idx = np.sort(rng.integers(0, k_eff, size=(resamples, k_eff)), axis=1)

    def replicate_ndcg(gain_vec):
        drawn = gain_vec[idx]
        dcg = (drawn / discounts).sum(axis=1)
        ideal = (np.sort(drawn, axis=1)[:, ::-1] / discounts).sum(axis=1)
        out = np.zeros(resamples)
        nonzero = ideal > 0.0
        out[nonzero] = dcg[nonzero] / ideal[nonzero]
        return out

    deltas = replicate_ndcg(gains[0]) - replicate_ndcg(gains[1])
    delta = float(deltas.mean())
    ci_low = float(np.percentile(deltas, 2.5))
    ci_high = float(np.percentile(deltas, 97.5))
    p_value = float(np.mean(np.abs(deltas - delta) >= abs(delta)))
    p_value = max(p_value, 1.0 / resamples)
    return BootstrapResult(delta, ci_low, ci_high, p_value, resamples, k_eff)


# The seven queues of a default evaluation with kappas 0, 0.5, 1 and 2.
QUEUE_METHODS = {
    "severity_only": (Method.SEVERITY_ONLY, RiskProfile()),
    "confidence_only": (Method.CONFIDENCE_ONLY, RiskProfile()),
    "weighted_sum": (Method.WEIGHTED_SUM, RiskProfile()),
    **{f"risk_averse_k{k:g}": (Method.RISK_AVERSE, RiskProfile(k)) for k in (0, 0.5, 1, 2)},
}


@st.composite
def bootstrap_cases(draw):
    """A labelled batch whose cores, heights and probabilities repeat (so
    scores tie), often with no relevant alert at all, plus a baseline and
    1 to 7 queues over it, the baseline's method among them."""
    n = draw(st.integers(1, 40))
    no_attacks = draw(st.booleans())
    rows = []
    for i in range(n):
        core = draw(st.sampled_from([0.0, 2.5, 5.0, 7.5]))
        height = draw(st.sampled_from([0.05, 0.5, 1.0]))
        p = draw(st.sampled_from([0.2, 0.5, 0.7, 1.0]))
        label = 0 if no_attacks else draw(st.sampled_from([0, 1]))
        rows.append(make_record(f"a{i:02d}", core, max(core * 0.2, 1e-6), height, p, label=label))
    records = make_batch(rows)
    names = draw(st.lists(st.sampled_from(list(QUEUE_METHODS)), min_size=1, max_size=7, unique=True))
    baseline = draw(st.sampled_from(names))
    predicted = draw(st.booleans())

    def queue(name):
        ranked = rank(records, *QUEUE_METHODS[name])
        return predicted_queue(ranked) if predicted else ranked

    return records, queue(baseline), {name: queue(name) for name in names}


class TestBootstrapMatchesReference:
    @given(
        case=bootstrap_cases(),
        k=st.integers(1, 60),
        resamples=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_result_equals_its_own_draw(self, case, k, resamples, seed):
        records, baseline, queues = case
        rel = relevance(records)
        options = dict(k=k, resamples=resamples, seed=seed)
        if len(baseline) == 0:
            with pytest.raises(EvaluationError, match="non-empty queues"):
                paired_bootstrap(baseline, queues, rel, **options)
            return
        results = paired_bootstrap(baseline, queues, rel, **options)
        assert list(results) == list(queues)
        for name, queue in queues.items():
            assert results[name] == reference_paired_bootstrap(queue, baseline, rel, **options)

    @pytest.fixture(scope="class")
    def evaluate_shaped(self):
        # The evaluate command's shape: the seven default queues restricted
        # to predicted attacks, longer than k = 500.
        records = random_batch(np.random.default_rng(14), 1400)
        queues = {
            name: predicted_queue(rank(records, *spec)) for name, spec in QUEUE_METHODS.items()
        }
        baseline = queues.pop("risk_averse_k1")
        assert len(baseline) > 600
        return relevance(records), baseline, queues

    def test_benchmark_shaped_case(self, evaluate_shaped):
        rel, baseline, queues = evaluate_shaped
        options = dict(k=500, resamples=1000, seed=0)
        results = paired_bootstrap(baseline, queues, rel, **options)
        assert list(results) == list(queues)
        for name, queue in queues.items():
            assert results[name] == reference_paired_bootstrap(queue, baseline, rel, **options)

    @pytest.mark.parametrize("k", [1, 2, 500, 501])
    def test_row_blocks_change_no_bit(self, evaluate_shaped, k):
        rel, baseline, queues = evaluate_shaped
        queues = {name: queues[name] for name in ("severity_only", "risk_averse_k0")}
        block = max(1, BOOTSTRAP_BLOCK // k)  # replicates scored at a time
        for resamples in (1, block - 1, block, block + 1, 1000):
            options = dict(k=k, resamples=resamples, seed=resamples)
            results = paired_bootstrap(baseline, queues, rel, **options)
            for name, queue in queues.items():
                expected = reference_paired_bootstrap(queue, baseline, rel, **options)
                assert expected.k == k
                assert bits(results[name]) == bits(expected)

    def test_memory_stays_bounded(self, evaluate_shaped):
        rel, baseline, queues = evaluate_shaped
        tracemalloc.start()
        try:
            paired_bootstrap(baseline, queues, rel, k=500, resamples=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


def bits(result):
    return np.array(dataclasses.astuple(result), dtype=float).tobytes()


@st.composite
def percentile_samples(draw):
    """1 to 2000 finite values: either drawn from a small pool (so they
    repeat), which may hold negative values and both signed zeros, or normal
    values of a drawn scale."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = st.sampled_from([-0.0, 0.0, -1.0, 1.0, -2.5, 5e-324]) | st.floats(-1e3, 1e3)
        pool = draw(st.lists(values, min_size=1, max_size=6))
        return rng.choice(np.array(pool, dtype=float), n)
    return rng.normal(0.0, draw(st.sampled_from([1e-9, 1.0, 1e9])), n)


class TestPercentiles:
    @given(
        values=percentile_samples(),
        drawn_q=st.lists(st.floats(0.0, 100.0), max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_bit_for_bit(self, values, drawn_q):
        qs = [0, 2.5, 50, 97.5, 100, *drawn_q]
        expected = [float(np.percentile(values, q)) for q in qs]
        got = _percentiles(values, qs)
        zeros = np.signbit(values[values == 0.0])
        if zeros.any() and not zeros.all():
            # 0.0 and -0.0 compare equal, so where a sample holds both, the
            # sign of a zero percentile follows numpy's partition order.
            assert got == expected
        else:
            assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestPerturb:
    def test_overconfident_caps_at_one(self):
        spec = ScenarioSpec(ScenarioKind.OVERCONFIDENT, noise_sd=0.2, seed=42)
        np.testing.assert_allclose(perturb([0.95], spec), [1.0])
        np.testing.assert_allclose(perturb([0.4], spec), [0.46])

    def test_underconfident_scales_down(self):
        spec = ScenarioSpec(ScenarioKind.UNDERCONFIDENT, noise_sd=0.2, seed=42)
        np.testing.assert_allclose(perturb([0.4, 1.0], spec), [0.34, 0.85])

    def test_noise_is_seed_deterministic(self):
        spec = ScenarioSpec(ScenarioKind.NOISE, noise_sd=0.2, seed=42)
        p = np.linspace(0.0, 1.0, 20)
        first = perturb(p, spec)
        second = perturb(p, spec)
        np.testing.assert_array_equal(first, second)
        assert np.all(first >= 0.0) and np.all(first <= 1.0)
        shifted = perturb(p, ScenarioSpec(ScenarioKind.NOISE, noise_sd=0.2, seed=43))
        assert not np.array_equal(first, shifted)

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValidationError, match=r"^p must lie in \[0, 1\], got 1.2$"):
            perturb([1.2], ScenarioSpec(ScenarioKind.NOISE, noise_sd=0.2, seed=42))

    @pytest.mark.parametrize("noise_sd", [-1.0, 0.0, float("nan"), float("inf")])
    def test_noise_sd_must_be_finite_and_positive(self, noise_sd):
        # the rule holds for library callers too, not only for a config
        with pytest.raises(ValidationError, match="noise_sd must be finite and > 0"):
            ScenarioSpec(ScenarioKind.NOISE, noise_sd=noise_sd, seed=42)


class TestApplyScenario:
    def consistent_batch(self, seed, n):
        gen = np.random.default_rng(seed)
        records = []
        for i in range(n):
            core = float(gen.uniform(1.0, 10.0))
            h_class = float(gen.uniform(0.05, 1.0))
            p = float(gen.uniform(0.0, 1.0))
            records.append(
                make_record(
                    f"s{i}", core, core * 0.2, instance_height(h_class, p), p,
                    h_class=h_class,
                )
            )
        return make_batch(records)

    def test_core_and_spread_held_fixed(self):
        records = self.consistent_batch(5, 10)
        shifted = apply_scenario(records, ScenarioSpec(ScenarioKind.NOISE, noise_sd=0.2, seed=9))
        for before, after in zip(records, shifted):
            assert after.core == before.core
            assert after.spread == before.spread
            assert after.h_class == before.h_class

    def test_height_tracks_perturbed_p(self):
        record = make_record("a", 6.0, 0.9, 0.6, 0.6, h_class=0.9)
        spec = ScenarioSpec(ScenarioKind.OVERCONFIDENT, noise_sd=0.2, seed=42)
        shifted = apply_scenario(make_batch([record]), spec)[0]
        assert shifted.p == pytest.approx(0.69)
        assert shifted.height == pytest.approx(0.69)

    def test_overconfident_score_shift_is_bounded(self):
        # heights cannot fall under scenario 1, and the per-alert risk-averse
        # score gain is capped by kappa * sigma * log10(scale)
        def index(r):
            return ranking_index(GaussianFuzzyNumber(r.core, r.spread, r.height), 1.0)

        records = self.consistent_batch(7, 50)
        spec = ScenarioSpec(ScenarioKind.OVERCONFIDENT, noise_sd=0.2, seed=42)
        shifted = apply_scenario(records, spec)
        for before, after in zip(records, shifted):
            assert after.height >= before.height - 1e-15
            change = index(after) - index(before)
            assert -1e-12 <= change <= before.spread * np.log10(1.15) + 1e-12


class TestScenarioEval:
    def test_underconfident_confidence_only_unchanged(self, rng):
        records = random_batch(rng, 40)
        results = scenario_eval(
            records, [ScenarioSpec(ScenarioKind.UNDERCONFIDENT, noise_sd=0.2, seed=42)], k=25
        )
        co = [r for r in results if r.method is Method.CONFIDENCE_ONLY][0]
        assert co.ndcg_after == co.ndcg_before

    def test_result_grid_shape(self, rng):
        records = random_batch(rng, 15)
        scenarios = [
            ScenarioSpec(ScenarioKind.OVERCONFIDENT, noise_sd=0.2, seed=42),
            ScenarioSpec(ScenarioKind.NOISE, noise_sd=0.2, seed=1),
        ]
        results = scenario_eval(records, scenarios, k=10)
        assert len(results) == len(scenarios) * len(Method)
        kinds = {(r.scenario, r.method) for r in results}
        assert len(kinds) == len(results)

    def test_change_pct(self):
        result = ScenarioResult(ScenarioKind.NOISE, Method.RISK_AVERSE, 100, 0.8, 0.6)
        assert result.change_pct == pytest.approx(-25.0)
        zero = ScenarioResult(ScenarioKind.NOISE, Method.RISK_AVERSE, 100, 0.0, 0.1)
        assert zero.change_pct is None


SWEEP_ROWS = (
    ("a1", "DoS", 0.9, 1, Criticality.IMPORTANT),
    ("a2", "PortScan", 0.8, 1, Criticality.NON_CRITICAL),
    ("a3", "DoS", 0.7, 0, Criticality.IMPORTANT),
    ("a4", "Bot", 0.6, 1, Criticality.CRITICAL),
    ("a5", "DDoS", 0.55, 1, Criticality.IMPORTANT),
    ("a6", "PortScan", 0.3, 0, Criticality.ISOLATED),
)
SWEEP_ALERTS = alert_columns(SWEEP_ROWS)
SWEEP_F1 = {"DoS": 0.7, "PortScan": 0.55, "Bot": 0.8, "DDoS": 0.6}


def sweep_fixture(alerts=SWEEP_ALERTS, f1=SWEEP_F1):
    return assemble(**alerts, catalog=load_catalog(), heights=heights_from_f1(f1)), f1


def reference_sweep(
    alerts, catalog, f1_by_class, grid, *, cf_mode=CfMode.CONTINUOUS,
    defaults=HeightParams(), kappa=1.0, uf_scale=1.0, cutoffs=SWEEP_CUTOFFS,
):
    """The sweep as first written: each grid point assembles the alerts anew."""
    def assemble_with(params, scale):
        heights = heights_from_f1(f1_by_class, params)
        return assemble(**alerts, catalog=catalog, heights=heights, cf_mode=cf_mode, uf_scale=scale)

    def spread(points):
        ndcg = np.array([p.ndcg_by_cutoff for p in points])
        return tuple((ndcg.max(axis=0) - ndcg.min(axis=0)).tolist())

    rel = relevance(assemble_with(defaults, uf_scale))
    points, parameter_spread = [], {}
    for name, values in grid.items():
        param_points = []
        for value in values:
            params, scale, kap = defaults, uf_scale, kappa
            if name in ("alpha", "h_min", "h_max"):
                params = dataclasses.replace(defaults, **{name: float(value)})
            elif name == "uf_scale":
                scale = float(value)
            else:
                kap = float(value)
            records = assemble_with(params, scale)
            queue = predicted_queue(rank(records, Method.RISK_AVERSE, RiskProfile(kap)))
            if len(queue) == 0:
                raise EvaluationError("sensitivity sweep: predicted queue is empty")
            ndcgs = tuple(ndcg_of_queue(queue, rel, k) for k in cutoffs)
            param_points.append(SweepPoint(name, float(value), ndcgs))
        points.extend(param_points)
        parameter_spread[name] = spread(param_points)
    return SweepReport(tuple(cutoffs), tuple(points), spread(points), parameter_spread)


def outcome(run):
    """A call's result, or the type and message of the error it raised."""
    try:
        return run()
    except (ValidationError, EvaluationError) as exc:
        return type(exc), str(exc)


# Grid values for each parameter; uf scale 1.5 takes Infiltration and the
# classes the catalog lacks past a uf of 0.5.
SWEEP_VALUES = {
    "alpha": (0.5, 0.7, 0.9, 1.0),
    "h_min": (0.01, 0.05, 0.1),
    "h_max": (0.9, 0.95, 0.99),
    "uf_scale": (0.8, 1.0, 1.2, 1.5),
    "kappa": (0.0, 0.5, 1.0, 1.5, 2.0),
}
sweep_grids = st.lists(st.sampled_from(list(SWEEP_VALUES)), min_size=1, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({
        name: st.lists(st.sampled_from(SWEEP_VALUES[name]), min_size=1, max_size=3)
        for name in names
    })
)


class TestSensitivitySweep:
    def test_single_point_grid(self):
        report = sensitivity_sweep(*sweep_fixture(), {"alpha": (0.9,)}, cutoffs=(5,))
        assert len(report.points) == 1
        assert report.points[0].parameter == "alpha"
        assert report.spread_by_cutoff == (0.0,)
        assert report.parameter_spread == {"alpha": (0.0,)}

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            sensitivity_sweep(*sweep_fixture(), {"widths": (1.0,)})

    def test_small_grid_shapes(self):
        grid = {"uf_scale": (0.8, 1.2), "kappa": (0.0, 2.0)}
        report = sensitivity_sweep(*sweep_fixture(), grid, cutoffs=(3, 5))
        assert report.cutoffs == (3, 5)
        assert len(report.points) == 4
        assert set(report.parameter_spread) == {"uf_scale", "kappa"}
        for spreads in report.parameter_spread.values():
            assert len(spreads) == 2
            assert all(s >= 0.0 for s in spreads)
        for i in range(2):
            assert report.spread_by_cutoff[i] >= max(
                s[i] for s in report.parameter_spread.values()
            )

    def test_empty_predicted_queue_rejected(self):
        alerts = alert_columns([("a1", "DoS", 0.2, 1, Criticality.CRITICAL)])
        with pytest.raises(EvaluationError):
            sensitivity_sweep(*sweep_fixture(alerts, {"DoS": 0.7}), {"alpha": (0.9,)})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="sweep grid must not be empty"):
            sensitivity_sweep(*sweep_fixture(), {})

    def test_parameter_without_values_rejected(self):
        with pytest.raises(ValidationError, match="sweep parameter 'h_max' has no values"):
            sensitivity_sweep(*sweep_fixture(), {"alpha": (0.9,), "h_max": ()})

    def test_no_cutoffs_rejected(self):
        with pytest.raises(ValidationError, match="sweep cutoffs must not be empty"):
            sensitivity_sweep(*sweep_fixture(), {"alpha": (0.9,)}, cutoffs=())

    def test_records_of_other_heights_rejected(self):
        records, f1 = sweep_fixture()
        with pytest.raises(ValidationError, match="heights of f1_by_class"):
            sensitivity_sweep(records, f1, defaults=HeightParams(alpha=0.5))

    def test_uf_value_past_half_matches_reference(self):
        # Infiltration's catalog uf 0.35 leaves (0, 0.5] at scale 1.5.
        alerts = alert_columns([*SWEEP_ROWS, ("a7", "Infiltration", 0.95, 1, None)])
        f1 = {**SWEEP_F1, "Infiltration": 0.9}
        grid = {"kappa": (0.5,), "uf_scale": (1.2, 1.5)}
        expected = outcome(lambda: reference_sweep(alerts, load_catalog(), f1, grid))
        assert expected == (
            ValidationError,
            f"uf_scale 1.5 puts the uf of class 'Infiltration' at {0.35 * 1.5!r}, outside (0, 0.5]",
        )
        assert outcome(lambda: sensitivity_sweep(*sweep_fixture(alerts, f1), grid)) == expected

    def test_uf_points_use_the_batch_catalog(self):
        catalog = {**load_catalog(), "DoS": AttackClassProfile("DoS", 7.5, 0.12)}
        records = assemble(**SWEEP_ALERTS, catalog=catalog, heights=heights_from_f1(SWEEP_F1))
        grid, cutoffs = {"uf_scale": (0.8, 1.2, 1.5)}, (1, 3, 5)
        expected = reference_sweep(SWEEP_ALERTS, catalog, SWEEP_F1, grid, cutoffs=cutoffs)
        bundled = reference_sweep(SWEEP_ALERTS, load_catalog(), SWEEP_F1, grid, cutoffs=cutoffs)
        assert expected != bundled
        assert sensitivity_sweep(records, SWEEP_F1, grid, cutoffs=cutoffs) == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["DoS", "PortScan", "Infiltration", "benign", "QuantumExfil"]),
                st.floats(0.0, 1.0),
                st.sampled_from([0, 1]),
                st.one_of(st.none(), st.sampled_from(list(Criticality))),
            ),
            min_size=3, max_size=30,
        ),
        st.dictionaries(
            st.sampled_from(["DoS", "PortScan", "Infiltration", "benign"]), st.floats(0.0, 1.0)
        ),
        sweep_grids,
        st.sampled_from(list(CfMode)),
        st.sampled_from([0.8, 1.0, 1.2]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([(10, 100), (1,), (3, 5)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_reassembling_reference(
        self, rows, f1, grid, cf_mode, uf_scale, kappa, cutoffs
    ):
        alerts = alert_columns((f"a{i}", *row) for i, row in enumerate(rows))
        catalog = load_catalog()
        defaults = HeightParams(alpha=0.8, h_min=0.05, h_max=0.9)
        records = assemble(
            **alerts, catalog=catalog, heights=heights_from_f1(f1, defaults),
            cf_mode=cf_mode, uf_scale=uf_scale,
        )
        expected = outcome(lambda: reference_sweep(
            alerts, catalog, f1, grid, cf_mode=cf_mode, defaults=defaults, kappa=kappa,
            uf_scale=uf_scale, cutoffs=cutoffs,
        ))
        got = outcome(lambda: sensitivity_sweep(
            records, f1, grid, defaults=defaults, kappa=kappa, cutoffs=cutoffs
        ))
        assert got == expected
