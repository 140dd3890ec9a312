"""Release gate: one test per frozen acceptance criterion.

Each test prints a single pass/fail line under ``pytest -v``. The synthetic
benchmark runs use the default 5,000-flow corpus at seed 42; the CIC-IDS2017
check is optional and skips unless FUZZTRIAGE_CIC_CSV points at a flow CSV.
"""

import dataclasses
import itertools
import math
import os
import time

import numpy as np
import pytest

from conftest import make_batch, make_record, random_batch
from fuzztriage import pipeline
from fuzztriage.alerts import AttackClassProfile, Criticality, assemble
from fuzztriage.calibration import HeightParams, build_height_table
from fuzztriage.config import load_config
from fuzztriage.evaluation import (
    ScenarioKind,
    ndcg_at_k,
    paired_bootstrap,
    predicted_queue,
    relevance,
)
from fuzztriage.ranking import Method, RiskProfile, rank

METHODS = ("severity_only", "confidence_only", "weighted_sum", "risk_averse_k1")


def benchmark_config(out_dir, sweep=False):
    config = load_config(None, seed=42, out_dir=str(out_dir))
    if sweep:
        evaluation = dataclasses.replace(config.evaluation, sweep=True)
        config = dataclasses.replace(config, evaluation=evaluation)
    return config


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    return pipeline.run(benchmark_config(tmp_path_factory.mktemp("acc_full")), "evaluate")


@pytest.fixture(scope="module")
def stress_run(tmp_path_factory):
    config = benchmark_config(tmp_path_factory.mktemp("acc_stress"), sweep=True)
    start = time.perf_counter()
    run = pipeline.run(config, "stress")
    return run, time.perf_counter() - start


def metric(run, method, queue, cutoff):
    for row in run.tables.metrics:
        if row.method == method and row.queue == queue and row.cutoff == cutoff:
            return row.ndcg
    raise AssertionError(f"no metric row for {method}/{queue}@{cutoff}")


def scenario_row(run, kind, method):
    for row in run.tables.scenarios:
        if row.scenario is kind and row.method is method:
            return row
    raise AssertionError(f"no scenario row for {kind}/{method}")


def test_criterion_01_worked_example_reproduction():
    start = time.perf_counter()
    table = build_height_table({"WebAttack": (45, 35, 15)}, HeightParams(alpha=0.9))
    row = table["WebAttack"]
    catalog = {"WebAttack": AttackClassProfile("WebAttack", cvss=7.5, uf=0.15)}
    (record,) = assemble(
        ["a-1"], ["WebAttack"], [0.9], catalog, {"WebAttack": row.h_class},
        criticalities=[Criticality.IMPORTANT],
    )
    elapsed = time.perf_counter() - start

    assert record.cf == 0.8
    assert record.core == pytest.approx(6.00, abs=1e-12)
    assert record.spread == pytest.approx(0.90, abs=1e-12)
    assert row.metrics.f1 == pytest.approx(0.6429, abs=1e-4)
    assert row.h_class == pytest.approx(0.6286, abs=5e-4)
    assert elapsed < 1.0


def test_criterion_02_ndcg_matches_permutation_oracle():
    def oracle(rels, k):
        gains = [2.0 ** r - 1.0 for r in rels]
        discounts = [1.0 / math.log2(i + 2) for i in range(len(gains))]

        def dcg(seq):
            return sum(g * d for g, d in zip(seq[:k], discounts))

        best = max(dcg(perm) for perm in itertools.permutations(gains))
        return dcg(gains) / best if best > 0.0 else 0.0

    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        rels = rng.uniform(0.0, 9.0, size=n)
        if n > 1 and rng.uniform() < 0.3:
            rels[int(rng.integers(0, n))] = 0.0
        if n > 1 and rng.uniform() < 0.3:
            rels[int(rng.integers(0, n))] = rels[int(rng.integers(0, n))]
        k = int(rng.integers(1, n + 1))
        rel_list = rels.tolist()
        assert ndcg_at_k(rel_list, k) == pytest.approx(oracle(rel_list, k), abs=1e-12)
    assert time.perf_counter() - start < 10.0


def test_criterion_03_ordering_invariances():
    # confidence-only order survives uniform deflation p -> 0.85p
    for seed in range(500):
        rng = np.random.default_rng(seed)
        records = random_batch(rng, n=int(rng.integers(2, 40)))
        deflated = make_batch(r._replace(p=0.85 * r.p) for r in records)
        assert (
            rank(deflated, Method.CONFIDENCE_ONLY).ids()
            == rank(records, Method.CONFIDENCE_ONLY).ids()
        )

    # weighted-sum order survives any increasing affine map of p
    for seed in range(1000, 1500):
        rng = np.random.default_rng(seed)
        records = random_batch(rng, n=int(rng.integers(2, 40)))
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(-1.0, 1.0))
        mapped = make_batch(r._replace(p=a * r.p + b) for r in records)
        assert (
            rank(mapped, Method.WEIGHTED_SUM).ids()
            == rank(records, Method.WEIGHTED_SUM).ids()
        )

    # kappa=0 removes the penalty term entirely
    for seed in range(2000, 2500):
        rng = np.random.default_rng(seed)
        records = random_batch(rng, n=int(rng.integers(2, 40)))
        zero_kappa = rank(records, Method.RISK_AVERSE, RiskProfile(0.0))
        assert zero_kappa.ids() == rank(records, Method.SEVERITY_ONLY).ids()


def test_criterion_04_kappa_demotes_unreliable_severity():
    target = make_record("target", core=9.5, spread=1.4, height=0.05, p=0.05)
    peers = [
        make_record(f"peer-{i}", core=8.0 + 0.1 * i, spread=1.0, height=0.95, p=0.95)
        for i in range(8)
    ]
    batch = make_batch([target] + peers)
    queues = [rank(batch, Method.RISK_AVERSE, RiskProfile(k)) for k in (0.0, 0.5, 1.0, 1.5, 2.0)]
    ranks = [next(a.rank for a in q if a.alert_id == "target") for q in queues]
    assert ranks[0] == 1
    assert all(later >= earlier for earlier, later in zip(ranks, ranks[1:]))
    assert ranks[-1] > ranks[0]


def test_criterion_05_stress_trend(stress_run):
    run, elapsed = stress_run
    ra = metric(run, "risk_averse_k1", "pred", 100)
    ws = metric(run, "weighted_sum", "pred", 100)
    co = metric(run, "confidence_only", "pred", 100)
    assert ra >= ws >= co
    assert co <= 0.5
    assert ra >= 0.95
    assert elapsed < 60.0


def test_criterion_06_full_feature_near_parity(full_run):
    scores = {name: metric(full_run, name, "pred", 10) for name in METHODS}
    assert abs(scores["risk_averse_k1"] - scores["severity_only"]) <= 0.05
    others = {name: s for name, s in scores.items() if name != "confidence_only"}
    assert all(scores["confidence_only"] < s for s in others.values())


def test_criterion_07_bootstrap_correctness(stress_run):
    run, _ = stress_run
    rel = relevance(run.records)

    ra_pred = predicted_queue(run.queues["risk_averse_k1"])
    self_test = paired_bootstrap(
        ra_pred, {"ra": ra_pred}, rel, k=500, resamples=1000, seed=0
    )["ra"]
    assert self_test.delta == 0.0
    assert self_test.p_value == 1.0
    assert self_test.ci_low <= 0.0 <= self_test.ci_high

    at_1000 = run.tables.bootstrap["confidence_only"]
    assert at_1000.resamples == 1000
    assert at_1000.delta < 0.0
    assert at_1000.p_value <= 0.05

    co_pred = predicted_queue(run.queues["confidence_only"])
    at_5000 = paired_bootstrap(
        ra_pred, {"co": co_pred}, rel, k=500, resamples=5000, seed=0
    )["co"]
    assert at_5000.delta < 0.0
    assert at_5000.p_value <= 0.05


def test_criterion_08_miscalibration_robustness(stress_run):
    run, _ = stress_run
    under = ScenarioKind.UNDERCONFIDENT
    for method in (Method.CONFIDENCE_ONLY, Method.WEIGHTED_SUM):
        row = scenario_row(run, under, method)
        assert row.ndcg_after == row.ndcg_before
    ra_row = scenario_row(run, under, Method.RISK_AVERSE)
    assert abs(ra_row.change_pct) <= 0.5

    noise_co = scenario_row(run, ScenarioKind.NOISE, Method.CONFIDENCE_ONLY)
    noise_ra = scenario_row(run, ScenarioKind.NOISE, Method.RISK_AVERSE)
    co_drop = noise_co.ndcg_before - noise_co.ndcg_after
    ra_drop = noise_ra.ndcg_before - noise_ra.ndcg_after
    assert co_drop > ra_drop


def test_criterion_09_sensitivity_sweep(stress_run):
    run, _ = stress_run
    sweep = run.tables.sweep
    at100 = sweep.cutoffs.index(100)
    assert sweep.spread_by_cutoff[at100] <= 0.03
    uf_spread = sweep.parameter_spread["uf_scale"][at100]
    assert uf_spread > 0.0
    for name in ("alpha", "h_min", "h_max"):
        assert uf_spread > sweep.parameter_spread[name][at100]


def test_criterion_10_cicids2017_extended_run(tmp_path_factory):
    path = os.environ.get("FUZZTRIAGE_CIC_CSV")
    if not path:
        pytest.skip("set FUZZTRIAGE_CIC_CSV to a CIC-IDS2017 flow CSV (hours-scale run)")

    out = tmp_path_factory.mktemp("cic")
    config = load_config(None, seed=42, out_dir=str(out))
    dataset = dataclasses.replace(config.dataset, source="csv", path=path)
    config = dataclasses.replace(config, dataset=dataset)

    full = pipeline.run(config, "evaluate")
    d = full.tables.detector
    assert d.accuracy == pytest.approx(0.9268, abs=0.03)
    assert d.precision == pytest.approx(0.8382, abs=0.03)
    assert d.recall == pytest.approx(0.7789, abs=0.03)
    assert d.f1 == pytest.approx(0.8075, abs=0.03)

    stress = pipeline.run(dataclasses.replace(config, out_dir=str(out / "stress")), "stress")
    s = stress.tables.detector
    assert s.accuracy == pytest.approx(0.8089, abs=0.03)
    assert s.precision == pytest.approx(0.5822, abs=0.03)
    assert s.recall == pytest.approx(0.1055, abs=0.03)
    assert s.f1 == pytest.approx(0.1786, abs=0.03)

    scores = {name: metric(stress, name, "pred", 100) for name in METHODS}
    assert (
        scores["severity_only"]
        > scores["risk_averse_k1"]
        > scores["weighted_sum"]
        > scores["confidence_only"]
    )
