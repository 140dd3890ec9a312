"""Ranking methods: scores, ordering contracts, queue serialization."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_batch, make_record, random_batch
from fuzztriage.calibration import HEIGHT_FLOOR
from fuzztriage.config import EvaluationConfig
from fuzztriage.errors import ValidationError
from fuzztriage.evaluation import band_eval, ndcg_at_k, predicted_queue, relevance
from fuzztriage.ranking import (
    QUEUE_HEADER,
    Method,
    RankedQueue,
    RiskProfile,
    method_scores,
    minmax_norm,
    rank,
    write_queue_csvs,
)
from fuzztriage.sgfn import GaussianFuzzyNumber, ranking_index
from fuzztriage.tables import ROWS_PER_WRITE


def reference_triple():
    # three alerts with hand-checked risk-averse scores at kappa=1:
    # 7.6785 > 7.2483 > 6.6318, so the confident high-core alert wins
    # and the low-height one drops to the bottom
    return make_batch([
        make_record("353856", 7.2504, 1.4706, 0.3796, 0.3796),
        make_record("192641", 7.3872, 1.4267, 0.7992, 0.9872),
        make_record("230833", 7.8000, 1.2480, 0.7992, 1.0000),
    ])


class TestMinMaxNorm:
    def test_two_point_span(self):
        np.testing.assert_allclose(minmax_norm([5.0, 10.0]), [0.0, 1.0])

    def test_midpoint(self):
        np.testing.assert_allclose(minmax_norm([5.0, 7.5, 10.0]), [0.0, 0.5, 1.0])

    def test_constant_maps_to_half(self):
        np.testing.assert_allclose(minmax_norm([7.0, 7.0, 7.0]), [0.5, 0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            minmax_norm([])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            minmax_norm([1.0, bad])


class TestRiskProfile:
    def test_default(self):
        assert RiskProfile().kappa == 1.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_kappa(self, bad):
        with pytest.raises(ValidationError):
            RiskProfile(bad)


class TestReferenceTriple:
    def test_risk_averse_scores(self):
        queue = rank(reference_triple(), Method.RISK_AVERSE, RiskProfile(1.0))
        assert queue.ids() == ("230833", "192641", "353856")
        scores = [a.score for a in queue]
        assert scores[0] == pytest.approx(7.6785, abs=5e-4)
        assert scores[1] == pytest.approx(7.2483, abs=5e-4)
        assert scores[2] == pytest.approx(6.6318, abs=5e-4)

    def test_severity_only_ignores_height(self):
        queue = rank(reference_triple(), Method.SEVERITY_ONLY)
        assert queue.ids() == ("230833", "192641", "353856")
        assert [a.score for a in queue] == [7.8000, 7.3872, 7.2504]

    def test_confidence_only_follows_p(self):
        queue = rank(reference_triple(), Method.CONFIDENCE_ONLY)
        assert queue.ids() == ("230833", "192641", "353856")
        assert [a.score for a in queue] == [1.0000, 0.9872, 0.3796]


class TestMethodScores:
    def test_weighted_sum_blends_normalized_halves(self):
        alerts = make_batch([
            make_record("a", 5.0, 0.75, 0.9, 0.0),
            make_record("b", 7.5, 1.10, 0.9, 0.5),
            make_record("c", 10.0, 1.50, 0.9, 1.0),
        ])
        np.testing.assert_allclose(
            method_scores(alerts, Method.WEIGHTED_SUM), [0.0, 0.5, 1.0]
        )

    def test_weighted_sum_constant_p_reduces_to_severity_shape(self):
        alerts = make_batch([
            make_record("a", 5.0, 0.75, 0.9, 0.7),
            make_record("b", 10.0, 1.50, 0.9, 0.7),
        ])
        np.testing.assert_allclose(
            method_scores(alerts, Method.WEIGHTED_SUM), [0.25, 0.75]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_kappa_zero_matches_severity_order(self, seed):
        alerts = random_batch(np.random.default_rng(seed), 40)
        ra = rank(alerts, Method.RISK_AVERSE, RiskProfile(0.0))
        so = rank(alerts, Method.SEVERITY_ONLY)
        assert ra.ids() == so.ids()


class TestRankMechanics:
    def test_empty_batch(self):
        queue = rank(make_batch([]), Method.SEVERITY_ONLY)
        assert len(queue) == 0
        assert queue.ids() == ()

    def test_duplicate_ids_rejected(self):
        alerts = [make_record("x", 5.0, 1.0, 0.9, 0.5), make_record("x", 6.0, 1.0, 0.9, 0.5)]
        with pytest.raises(ValidationError, match="unique"):
            rank(make_batch(alerts), Method.SEVERITY_ONLY)

    @pytest.mark.parametrize("method", list(Method))
    def test_single_alert_rank_one(self, method):
        queue = rank(make_batch([make_record("only", 6.0, 0.9, 0.63, 0.8)]), method)
        assert len(queue) == 1
        assert next(iter(queue)).rank == 1
        assert queue.ids() == ("only",)

    def test_ranks_contiguous_from_one(self, rng):
        queue = rank(random_batch(rng, 25), Method.WEIGHTED_SUM)
        assert [a.rank for a in queue] == list(range(1, 26))

    def test_tie_breaks_ascending_id(self):
        alerts = make_batch([
            make_record("beta", 6.0, 0.9, 0.8, 0.4),
            make_record("alpha", 6.0, 0.9, 0.8, 0.9),
        ])
        queue = rank(alerts, Method.SEVERITY_ONLY)
        assert queue.ids() == ("alpha", "beta")

    @pytest.mark.parametrize("method", list(Method))
    def test_input_order_irrelevant(self, method, rng):
        alerts = random_batch(rng, 30)
        shuffled = make_batch(alerts[i] for i in rng.permutation(30))
        assert rank(alerts, method).ids() == rank(shuffled, method).ids()

    def test_explanation_carries_inputs(self):
        record = make_record("e", 6.0, 0.9, 0.626, 0.75, cf=0.8, uf=0.15)
        queue = rank(make_batch([record]), Method.RISK_AVERSE, RiskProfile(1.5))
        inputs = queue.records[queue.order[0]]
        assert inputs.core == 6.0
        assert inputs.spread == 0.9
        assert inputs.height == 0.626
        assert inputs.p == 0.75
        assert inputs.cf == 0.8
        assert inputs.uf == 0.15
        assert queue.kappa == 1.5

    def test_kappa_none_outside_risk_averse(self):
        record = make_record("e", 6.0, 0.9, 0.626, 0.75)
        queue = rank(make_batch([record]), Method.CONFIDENCE_ONLY)
        assert queue.kappa is None


def kappa_queues(alerts, kappas):
    """One risk-averse queue of ``alerts`` per kappa, in the given order."""
    return [rank(alerts, Method.RISK_AVERSE, RiskProfile(k)) for k in kappas]


class TestKappaSweep:
    def test_low_height_alert_degrades_monotonically(self):
        alerts = [make_record("target", 9.5, 1.4, 0.05, 0.05)]
        alerts += [
            make_record(f"peer-{i}", 8.0 + 0.1 * i, 1.2, 0.95, 0.95) for i in range(8)
        ]
        ranks = []
        for queue in kappa_queues(make_batch(alerts), [0.0, 0.5, 1.0, 1.5, 2.0]):
            position = {a.alert_id: a.rank for a in queue}
            ranks.append(position["target"])
        assert ranks[0] == 1
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] > ranks[0]

    def test_single_kappa_matches_direct_call(self, rng):
        # the batch caches log10_height and id_rank on first use; queues at
        # other kappas first must not change the kappa 1 queue of the batch
        alerts = random_batch(rng, 20)
        swept = kappa_queues(alerts, [0.0, 2.0, 1.0])[-1]
        direct = rank(make_batch(list(alerts)), Method.RISK_AVERSE, RiskProfile(1.0))
        assert swept.ids() == direct.ids()
        assert [a.score for a in swept] == [a.score for a in direct]

    def test_full_height_neutralizes_kappa(self, rng):
        alerts = make_batch(
            make_record(f"a{i}", float(c), max(float(c) * 0.2, 1e-6), 1.0, 0.9)
            for i, c in enumerate(np.random.default_rng(3).uniform(1, 10, size=15))
        )
        queues = kappa_queues(alerts, [0.0, 1.0, 2.0])
        assert queues[0].ids() == queues[1].ids() == queues[2].ids()


class TestQueueCsv:
    def test_round_trip_shape(self, tmp_path, rng):
        records = list(random_batch(rng, 10))
        records[0] = make_record(records[0].alert_id, 5.0, 1.0, 0.9, 0.5, label=None)
        records = make_batch(records)
        queue = rank(records, Method.RISK_AVERSE, RiskProfile(1.0))
        path = tmp_path / "queue.csv"
        write_queue_csvs({path: queue}, header_comment="config_hash=abc seed=7")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc seed=7"
        assert lines[1] == ",".join(QUEUE_HEADER)
        assert len(lines) == 2 + len(records)
        first = lines[2].split(",")
        assert first[0] == "1"
        assert first[2] == "risk_averse"
        label_blank = [ln for ln in lines[2:] if ln.endswith(",")]
        assert len(label_blank) == 1


@st.composite
def tied_batches(draw):
    """Batches whose cores, heights and probabilities repeat, so every
    method sees exact ties, and whose ids and classes are arbitrary text.
    Ids from a small alphabet often differ only by a trailing NUL ("b",
    "b\\x00"), which a numpy string array would treat as equal, and ids and
    classes often carry the characters CSV must quote."""
    csv_text = st.text("a,\"\r\n", min_size=1, max_size=3)
    id_text = st.one_of(
        st.text("ab\x00", min_size=1, max_size=3), csv_text, st.text(min_size=1, max_size=4)
    )
    class_text = st.one_of(st.sampled_from(["DoS", "Déni"]), csv_text, st.text(max_size=4))
    height = st.one_of(
        st.sampled_from([HEIGHT_FLOOR, 0.25, 0.5, 1.0]), st.floats(HEIGHT_FLOOR, 1.0)
    )
    ids = draw(st.lists(id_text, max_size=30, unique=True))
    records = []
    for alert_id in ids:
        core = draw(st.sampled_from([0.0, 2.5, 5.0, 7.5]))
        p = draw(st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0)))
        records.append(
            make_record(
                alert_id,
                core,
                max(core * 0.2, 1e-6),
                draw(height),
                p,
                label=draw(st.sampled_from([0, 1, None])),
                attack_class=draw(class_text),
            )
        )
    return make_batch(records)


method_profiles = st.one_of(
    st.sampled_from([(m, RiskProfile()) for m in Method if m is not Method.RISK_AVERSE]),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]).map(
        lambda kappa: (Method.RISK_AVERSE, RiskProfile(kappa))
    ),
)


def reference_scores(records, method, profile):
    """Risk-averse scores from the scalar ``ranking_index``; other methods'
    scores from ``method_scores``."""
    if method is Method.RISK_AVERSE:
        return [
            ranking_index(GaussianFuzzyNumber(r.core, r.spread, r.height), profile.kappa)
            for r in records
        ]
    return method_scores(records, method, profile).tolist() if records else []


# Two tied alerts whose ids differ only by a trailing NUL, listed in the
# opposite of Python string order, and one id that CSV must quote.
NUL_TIE = make_batch(
    [make_record("b\x00", 5.0, 1.0, 0.5, 0.5), make_record("b", 5.0, 1.0, 0.5, 0.5),
     make_record('a,"b"', 5.0, 1.0, 0.5, 0.5)]
)


class TestQueueProperties:
    @given(tied_batches(), method_profiles)
    @example(NUL_TIE, (Method.RISK_AVERSE, RiskProfile(1.0)))
    @settings(max_examples=200, deadline=None)
    def test_order_and_views_match_scalar_reference(self, records, method_profile):
        method, profile = method_profile
        queue = rank(records, method, profile)
        score = dict(zip(records.ids, reference_scores(records, method, profile)))
        reference = sorted(score, key=lambda i: (-score[i], i))
        assert queue.ids() == tuple(reference)
        assert [e.rank for e in queue] == list(range(1, len(records) + 1))
        assert [(e.alert_id, e.score) for e in queue] == [(i, score[i]) for i in reference]
        assert np.array([score[i] for i in records.ids]).tobytes() == queue.scores.tobytes()

        labelled = make_batch(r._replace(label=r.label or 0) for r in records)
        queue = rank(labelled, method, profile)
        p = dict(zip(records.ids, records.p.tolist()))
        pred = predicted_queue(queue)
        assert pred.ids() == tuple(i for i in reference if p[i] >= 0.5)
        assert [e.rank for e in pred] == list(range(1, len(pred) + 1))

        rel = relevance(labelled)
        rel_by_id = dict(zip(records.ids, rel.tolist()))
        bands = EvaluationConfig().band_objects()
        for band, result in zip(bands, band_eval(queue, rel, bands)):
            kept = [i for i in reference if band.contains(p[i])]
            view = queue.where(band.contains(records.p))
            assert view.ids() == tuple(kept)
            assert result.count == len(kept)
            assert result.ndcg == (ndcg_at_k([rel_by_id[i] for i in kept], 100) if kept else None)

    @given(tied_batches(), method_profiles)
    @example(NUL_TIE, (Method.SEVERITY_ONLY, RiskProfile()))
    @settings(max_examples=200, deadline=None)
    def test_queue_csv_bytes_match_reference_writer(
        self, tmp_path_factory, records, method_profile
    ):
        queue = rank(records, *method_profile)
        folder = tmp_path_factory.mktemp("queue")
        stamp = "config_hash=abc seed=7"
        write_queue_csvs({folder / "fast.csv": queue}, header_comment=stamp)
        reference_queue_csv(folder / "reference.csv", queue, header_comment=stamp)
        assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()

    def test_queues_over_two_batches_are_rejected(self, tmp_path):
        batch = random_batch(np.random.default_rng(22), 5)
        shifted = batch.with_p(np.full(len(batch), 0.5))
        queues = {tmp_path / "a.csv": rank(batch, Method.SEVERITY_ONLY),
                  tmp_path / "b.csv": rank(shifted, Method.SEVERITY_ONLY)}
        with pytest.raises(ValidationError, match="ranked from one alert batch"):
            write_queue_csvs(queues)
        assert list(tmp_path.iterdir()) == []

    def test_queue_longer_than_one_chunk_matches_reference_writer(self, tmp_path):
        batch = random_batch(np.random.default_rng(21), 2 * ROWS_PER_WRITE + 1)
        queues = [rank(batch, Method.RISK_AVERSE, RiskProfile(1.0)), rank(batch, Method.CONFIDENCE_ONLY)]
        write_queue_csvs({tmp_path / f"q{n}.csv": q for n, q in enumerate(queues)}, "seed=7")
        for n, queue in enumerate(queues):
            reference_queue_csv(tmp_path / f"ref{n}.csv", queue, header_comment="seed=7")
            assert (tmp_path / f"q{n}.csv").read_bytes() == (tmp_path / f"ref{n}.csv").read_bytes()

    def test_queue_views_match_reference_writer(self, tmp_path):
        # Views hold fewer rows than the batch: the predicted queue, a
        # confidence band as band_eval takes it, and an empty view.
        batch = random_batch(np.random.default_rng(23), 2 * ROWS_PER_WRITE + 1)
        queue = rank(batch, Method.RISK_AVERSE, RiskProfile(0.5))
        band = EvaluationConfig().band_objects()[-1]
        views = [predicted_queue(queue), queue.where(band.contains(batch.p)),
                 queue.where(np.zeros(len(batch), bool))]
        assert 0 < len(views[1]) < len(views[0]) < len(batch)
        write_queue_csvs({tmp_path / f"v{n}.csv": view for n, view in enumerate(views)}, "seed=7")
        for n, view in enumerate(views):
            reference_queue_csv(tmp_path / f"ref{n}.csv", view, header_comment="seed=7")
            assert (tmp_path / f"v{n}.csv").read_bytes() == (tmp_path / f"ref{n}.csv").read_bytes()


def reference_queue_csv(path, queue, header_comment=None):
    """The queue writer as one ``csv.writer`` row per alert with
    ``f"{x:.10g}"`` floats; ``write_queue_csvs`` must write its bytes."""
    batch = queue.records
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(QUEUE_HEADER)
        for position, i in enumerate(queue.order.tolist(), start=1):
            label = batch.labels[i]
            writer.writerow(
                [
                    position,
                    batch.ids[i],
                    queue.method.value,
                    f"{queue.scores[i].item():.10g}",
                    f"{batch.core[i].item():.10g}",
                    f"{batch.spread[i].item():.10g}",
                    f"{batch.height[i].item():.10g}",
                    f"{batch.p[i].item():.10g}",
                    batch.classes[i],
                    "" if label is None else label,
                ]
            )


class TestLibraryUse:
    def test_readme_example_runs(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
        exec(text.split("```python\n", 1)[1].split("```", 1)[0], {})
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["1", "a-001"], ["2", "a-002"]]
