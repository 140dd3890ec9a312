"""End-to-end pipeline commands and the command-line front end.

Runs use a small synthetic corpus so the whole module stays fast; the
full-size defaults are exercised by the acceptance tests.
"""

import dataclasses
import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzztriage import cli, pipeline
from fuzztriage import config as config_module
from fuzztriage.alerts import UNKNOWN_CLASS
from fuzztriage.calibration import (
    CALIBRATION_HEADER,
    HEIGHT_FLOOR,
    NOVEL_CLASS_HEIGHT,
    HeightParams,
    class_height,
)
from fuzztriage.config import (
    DetectorMode,
    artifact_stamp,
    canonical_lines,
    config_hash,
    load_config,
)
from fuzztriage.detector import ATTACK_THRESHOLD, DetectorReport
from fuzztriage.errors import EvaluationError, ValidationError
from fuzztriage.evaluation import (
    DEFAULT_SWEEP_GRID,
    SWEEP_CUTOFFS,
    Band,
    BandResult,
    BootstrapResult,
    ScenarioKind,
    ScenarioResult,
    SweepPoint,
    SweepReport,
    predicted_queue,
)
from fuzztriage.ingestion import (
    SplitMode,
    SynthConfig,
    binary_labels,
    synth_generate,
    write_flow_csv,
)
from fuzztriage.pipeline import (
    EvalTables,
    MetricRow,
    evaluate_all,
    flow_ids,
    rank_all,
    write_eval,
)
from fuzztriage.ranking import Method


def small_config(out_dir, seed=42, n_flows=600, kappas=None, **eval_overrides):
    config = load_config(None, seed=seed, out_dir=str(out_dir), kappas=kappas)
    synth = dataclasses.replace(config.synth, n_flows=n_flows)
    evaluation = dataclasses.replace(
        config.evaluation, bootstrap_k=50, bootstrap_resamples=200, **eval_overrides
    )
    return dataclasses.replace(config, synth=synth, evaluation=evaluation)


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def data_rows(path):
    # skip the stamp comment and the header row
    return read_lines(path)[2:]


@pytest.fixture(scope="module")
def prepare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    config = small_config(out)
    return pipeline.run(config, "prepare")


@pytest.fixture(scope="module")
def rank_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("rank")
    return pipeline.run(small_config(out, kappas=[0.0, 1.5]), "rank")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    return pipeline.run(small_config(out), "evaluate")


@pytest.fixture(scope="module")
def stress_run(tmp_path_factory, full_run):
    out = tmp_path_factory.mktemp("stress")
    config = dataclasses.replace(full_run.config, out_dir=str(out))
    return pipeline.run(config, "stress")


class TestPrepare:
    def test_writes_three_split_files(self, prepare_run):
        names = [p.name for p in prepare_run.written]
        assert names == ["train.csv", "validation.csv", "test.csv"]
        assert all(p.parent.name == "splits" and p.exists() for p in prepare_run.written)

    def test_every_file_is_stamped(self, prepare_run):
        stamp = f"# {artifact_stamp(prepare_run.config)}"
        for path in prepare_run.written:
            assert read_lines(path)[0] == stamp

    def test_splits_partition_all_rows(self, prepare_run):
        total = sum(len(data_rows(p)) for p in prepare_run.written)
        assert total == prepare_run.config.synth.n_flows

    def test_rerun_is_byte_identical(self, prepare_run, tmp_path):
        config = dataclasses.replace(prepare_run.config, out_dir=str(tmp_path))
        again = pipeline.run(config, "prepare")
        for old, new in zip(prepare_run.written, again.written):
            assert new.read_bytes() == old.read_bytes()

    def test_different_seed_changes_data(self, prepare_run, tmp_path):
        other = pipeline.run(small_config(tmp_path, seed=43), "prepare")
        old_rows = data_rows(prepare_run.written[0])
        new_rows = data_rows(other.written[0])
        assert new_rows != old_rows


@pytest.fixture(scope="module")
def calibrate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("calib")
    return pipeline.run(small_config(out, n_flows=400), "calibrate")


class TestCalibrate:
    def test_writes_height_table_after_splits(self, calibrate_run):
        names = [p.name for p in calibrate_run.written]
        assert names == ["train.csv", "validation.csv", "test.csv", "heights.csv"]
        heights = calibrate_run.written[-1]
        assert heights.parent.name == "calibration"
        lines = read_lines(heights)
        assert lines[0] == f"# {artifact_stamp(calibrate_run.config)}"
        assert lines[1].split(",") == CALIBRATION_HEADER

    def test_heights_stay_clipped(self, calibrate_run):
        params = calibrate_run.config.heights
        for row in calibrate_run.table.values():
            assert params.h_min <= row.h_class <= params.h_max

    def test_table_covers_validation_classes(self, calibrate_run):
        prep = calibrate_run.prep
        val_classes = {prep.classes[i] for i in prep.split.val_idx} - {"benign"}
        assert val_classes <= set(calibrate_run.table)

    def test_empty_validation_split_rejected(self, tmp_path):
        config = small_config(tmp_path, n_flows=300)
        split = dataclasses.replace(
            config.split, mode=SplitMode.STRATIFIED, fractions=(0.7, 0.0, 0.3)
        )
        with pytest.raises(ValidationError, match="validation split is empty"):
            pipeline.run(dataclasses.replace(config, split=split), "calibrate")


class TestRank:
    def test_one_queue_per_method_and_kappa(self, rank_run):
        assert set(rank_run.queues) == {
            "severity_only",
            "confidence_only",
            "weighted_sum",
            "risk_averse_k0",
            "risk_averse_k1.5",
        }
        queue_files = [p for p in rank_run.written if p.parent.name == "queues"]
        assert sorted(p.name for p in queue_files) == sorted(
            f"queue_{name}.csv" for name in rank_run.queues
        )

    def test_one_alert_per_test_row(self, rank_run):
        n_test = rank_run.prep.split.test_idx.size
        assert len(rank_run.records) == n_test
        for queue in rank_run.queues.values():
            assert len(queue) == n_test

    def test_queue_files_carry_every_alert(self, rank_run):
        for path in rank_run.written:
            if path.parent.name != "queues":
                continue
            rows = data_rows(path)
            assert len(rows) == len(rank_run.records)
            assert [r.split(",")[0] for r in rows[:3]] == ["1", "2", "3"]


class TestEvaluate:
    def test_report_files_written(self, full_run):
        by_name = {p.name: p for p in full_run.written if p.parent.name == "eval"}
        assert set(by_name) == {
            "detector.csv",
            "metrics.csv",
            "bands.csv",
            "bootstrap.csv",
            "scenarios.csv",
            "summary.txt",
        }
        stamp = f"# {artifact_stamp(full_run.config)}"
        for path in by_name.values():
            assert read_lines(path)[0] == stamp

    def test_detector_row(self, full_run):
        path = next(p for p in full_run.written if p.name == "detector.csv")
        header, row = read_lines(path)[1:]
        assert header == "mode,accuracy,precision,recall,f1"
        cells = row.split(",")
        assert cells[0] == "train_full"
        for cell in cells[1:]:
            assert 0.0 <= float(cell) <= 1.0

    def test_metrics_cover_every_queue_and_cutoff(self, full_run):
        cutoffs = full_run.config.evaluation.cutoffs
        full = [m for m in full_run.tables.metrics if m.queue == "full"]
        pred = [m for m in full_run.tables.metrics if m.queue == "pred"]
        expected = {(name, k) for name in full_run.queues for k in cutoffs}
        assert {(m.method, m.cutoff) for m in full} == expected
        assert {(m.method, m.cutoff) for m in pred} == expected
        assert all(0.0 <= m.ndcg <= 1.0 for m in full_run.tables.metrics)

    def test_bands_per_queue(self, full_run):
        bands = full_run.config.evaluation.band_objects()
        assert set(full_run.tables.bands) == set(full_run.queues)
        for results in full_run.tables.bands.values():
            assert [r.band for r in results] == list(bands)
            assert all(r.count >= 0 for r in results)

    def test_bootstrap_compares_each_method_to_risk_averse(self, full_run):
        table = full_run.tables.bootstrap
        assert set(table) == {"severity_only", "confidence_only", "weighted_sum"}
        for result in table.values():
            assert result.resamples == 200
            assert 0.0 < result.p_value <= 1.0
            assert result.ci_low <= result.delta <= result.ci_high
        path = next(p for p in full_run.written if p.name == "bootstrap.csv")
        rows = data_rows(path)
        assert len(rows) == 3
        assert all(r.split(",")[1] == "risk_averse_k1" for r in rows)

    def test_scenarios_cover_grid(self, full_run):
        rows = full_run.tables.scenarios
        pairs = {(r.scenario, r.method) for r in rows}
        assert len(rows) == len(pairs) == 3 * 4

    def test_summary_is_stamped_text(self, full_run):
        path = next(p for p in full_run.written if p.name == "summary.txt")
        lines = read_lines(path)
        assert lines[0] == f"# {artifact_stamp(full_run.config)}"
        assert any("detector" in line for line in lines)

    def test_sweep_disabled_by_default(self, full_run):
        assert full_run.tables.sweep is None
        assert not any(p.name == "sweep.csv" for p in full_run.written)


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    return pipeline.run(small_config(out, n_flows=400, sweep=True), "evaluate")


class TestSweepRun:
    def test_sweep_table_written(self, sweep_run):
        sweep = sweep_run.tables.sweep
        assert sweep is not None
        assert sweep.cutoffs == SWEEP_CUTOFFS
        assert set(sweep.parameter_spread) == set(DEFAULT_SWEEP_GRID)
        assert all(v >= 0.0 for v in sweep.spread_by_cutoff)
        path = next(p for p in sweep_run.written if p.name == "sweep.csv")
        kinds = {r.split(",")[0] for r in data_rows(path)}
        assert kinds == {"point", "parameter_spread", "overall_spread"}


class TestStress:
    def test_recall_degrades_on_weak_features(self, full_run, stress_run):
        assert stress_run.config.detector.mode is DetectorMode.TRAIN_FLAGS_ONLY
        assert stress_run.tables.detector.recall < full_run.tables.detector.recall

    def test_config_differs_only_in_detector_mode(self, full_run, stress_run):
        before = canonical_lines(full_run.config)
        after = canonical_lines(stress_run.config)
        diffs = [(b, a) for b, a in zip(before, after) if b != a]
        assert diffs == [("detector.mode=train_full", "detector.mode=train_flags_only")]

    def test_same_artifact_layout(self, full_run, stress_run):
        full_names = [(p.parent.name, p.name) for p in full_run.written]
        stress_names = [(p.parent.name, p.name) for p in stress_run.written]
        assert stress_names == full_names


@pytest.fixture(scope="module")
def external_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("external")
    scores = out / "scores.csv"
    scores.write_text(scores_text(flow_ids(range(600))), encoding="utf-8")
    config = small_config(out)
    detector = dataclasses.replace(
        config.detector, mode=DetectorMode.EXTERNAL_SCORES, scores_path=str(scores)
    )
    return pipeline.run(dataclasses.replace(config, detector=detector), "evaluate")


class TestEvaluateAll:
    """evaluate_all reads only the alert batch, its queues and the
    calibration table."""

    def evaluate_counting_views(self, run, monkeypatch, records=None, queues=None):
        """evaluate_all of ``run``'s stages and the queues each
        predicted_queue call restricted, in call order."""
        viewed = []

        def counting(queue):
            viewed.append(queue)
            return predicted_queue(queue)

        monkeypatch.setattr(pipeline, "predicted_queue", counting)
        records = run.records if records is None else records
        queues = run.queues if queues is None else queues
        return evaluate_all(run.config, run.table, records, queues), viewed

    @pytest.mark.parametrize("run_name", ["full_run", "sweep_run"])
    def test_one_predicted_view_per_queue(self, request, monkeypatch, run_name):
        run = request.getfixturevalue(run_name)
        tables, viewed = self.evaluate_counting_views(run, monkeypatch)
        assert len(viewed) == len(run.queues)
        assert all(a is b for a, b in zip(viewed, run.queues.values()))
        assert tables.predicted
        assert tables == run.tables

    def test_no_predicted_attack_is_one_recorded_skip(self, sweep_run, monkeypatch, caplog):
        # every p under the threshold: each view is empty, and the metrics,
        # bootstrap, sweep and summary all follow the one flag
        records = sweep_run.records.with_p(np.zeros(len(sweep_run.records)))
        queues = rank_all(sweep_run.config, records)
        tables, viewed = self.evaluate_counting_views(sweep_run, monkeypatch, records, queues)
        assert len(viewed) == len(queues)
        assert not tables.predicted
        assert {m.queue for m in tables.metrics} == {"full"}
        assert tables.bootstrap == {} and tables.sweep is None
        assert tables.detector.recall == 0.0
        warning = NO_PREDICTED_ATTACK_SWEEP.split(": ", 1)[1]
        assert [r.getMessage() for r in caplog.records] == [warning]

    @pytest.mark.parametrize("run_name", ["full_run", "stress_run", "external_run"])
    def test_detector_report_is_the_test_splits(self, request, run_name):
        run = request.getfixturevalue(run_name)
        y_test = binary_labels(run.prep.classes)[run.prep.split.test_idx]
        expected = DetectorReport.from_predictions(
            y_test, run.detector_out.p_test >= ATTACK_THRESHOLD
        )
        assert run.tables.detector == expected
        mode = run.config.detector.mode.value
        d = expected
        assert data_rows(Path(run.config.out_dir, "eval", "detector.csv")) == [
            f"{mode},{d.accuracy:.10g},{d.precision:.10g},{d.recall:.10g},{d.f1:.10g}"
        ]


class TestMain:
    def test_prepare_success_output(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = cli.main(["prepare", "--out", str(out), "--seed", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        expected = load_config(None, seed=7, out_dir=str(out))
        assert lines[-1] == f"config_hash={config_hash(expected)} seed=7"
        assert len(lines) == 4
        assert all(str(out) in line for line in lines[:3])

    def test_stress_prints_the_stamp_its_artifacts_carry(self, tmp_path, capsys):
        # stress runs evaluate with another detector mode, so its stamp is
        # not the stamp of the config it loaded
        ini = tmp_path / "run.ini"
        ini.write_text("[synth]\nn_flows = 300\n", encoding="utf-8")
        rc = cli.main(["stress", "--config", str(ini), "--out", str(tmp_path / "out")])
        assert rc == 0
        *paths, stamp = capsys.readouterr().out.splitlines()
        assert stamp != artifact_stamp(load_config(ini))
        written = sorted(f for f in (tmp_path / "out").rglob("*") if f.is_file())
        assert sorted(map(Path, paths)) == written
        for path in written:
            assert read_lines(path)[0] == f"# {stamp}"

    def test_run_hashes_the_config_once(self, tmp_path, monkeypatch):
        calls = []
        canonical_lines = config_module.canonical_lines
        monkeypatch.setattr(
            config_module, "canonical_lines", lambda c: calls.append(c) or canonical_lines(c)
        )
        result = pipeline.run(small_config(tmp_path, n_flows=400, sweep=True), "evaluate")
        assert len(result.written) == 15
        assert calls == [result.config]
        assert result.stamp == artifact_stamp(result.config)

    def test_unknown_command_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline.run(small_config(tmp_path), "publish")
        assert not any(tmp_path.iterdir())

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["prepare", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_run_freezes_the_heap_and_main_does_not(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["fuzztriage", "prepare", "--config", str(tmp_path / "x")])
        frozen = gc.get_freeze_count()
        assert cli.main() == 2
        assert gc.get_freeze_count() == frozen
        main, seen = cli.main, []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or main())
        try:
            with pytest.raises(SystemExit) as exited:
                cli.run()
            assert exited.value.code == 2
            assert seen[0] > frozen  # frozen before main ran
            assert gc.get_freeze_count() > seen[0]  # and again after
        finally:
            gc.unfreeze()
        assert capsys.readouterr().err.count("error:") == 2

    def test_bad_kappa_exits_2(self, tmp_path, capsys):
        for kappa in ("one", ""):
            rc = cli.main(["rank", "--out", str(tmp_path), "--kappa", kappa])
            assert rc == 2
            assert "kappa" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.fixture
    def no_stage_runs(self, monkeypatch):
        def prepare_data(config):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("fuzztriage.pipeline.prepare_data", prepare_data)

    def test_out_under_a_file_exits_2(self, tmp_path, capsys, no_stage_runs):
        blocker = tmp_path / "results"
        blocker.write_text("", encoding="utf-8")
        rc = cli.main(["prepare", "--out", str(blocker / "run")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out: run.out_dir is not a directory: {blocker / 'run'}"
            f" ({blocker} is not a directory)"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["results"]

    def test_out_is_a_file_exits_2(self, tmp_path, capsys, no_stage_runs):
        blocker = tmp_path / "results"
        blocker.write_text("", encoding="utf-8")
        rc = cli.main(["evaluate", "--out", str(blocker)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out: run.out_dir is not a directory: {blocker}"
        ]
        assert blocker.read_text(encoding="utf-8") == ""

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = cli.main(["prepare", "--out", str(tmp_path / "r"), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: --seed: run.seed must be >= 0, got -1"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-3"], "--seed: run.seed must be >= 0, got -3"),
            (["--kappa=-1"], "--kappa: ranking.kappa must be finite and >= 0, got -1.0"),
            (["--kappa", "1,1"], "--kappa: ranking.kappa repeats a value: (1.0, 1.0)"),
            (["--seed", "abc"], "--seed: bad value for run.seed: 'abc'"),
            (["--seed", "1.5"], "--seed: bad value for run.seed: '1.5'"),
        ],
    )
    def test_flag_fault_names_the_flag(self, tmp_path, capsys, flags, message):
        # the INI file sets neither key, so the fault is the flag's, not the file's
        ini = tmp_path / "run.ini"
        ini.write_text("[synth]\nn_flows = 300\n", encoding="utf-8")
        rc = cli.main(["prepare", "--config", str(ini), "--out", str(tmp_path / "r"), *flags])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_negative_bootstrap_seed_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[evaluation]\nbootstrap_seed = -3\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--config", str(ini), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ini}: evaluation.bootstrap_seed must be >= 0, got -3"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("kappa", ["nan", "inf"])
    def test_non_finite_kappa_exits_2(self, tmp_path, capsys, kappa):
        rc = cli.main(["rank", "--out", str(tmp_path), "--kappa", kappa])
        assert rc == 2
        assert "kappa must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_repeated_kappa_exits_2(self, tmp_path, capsys):
        rc = cli.main(["rank", "--out", str(tmp_path), "--kappa", "1,1.0"])
        assert rc == 2
        assert "ranking.kappa repeats a value" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_non_ascii_class_under_c_locale(self, tmp_path):
        # Artifacts are UTF-8 whatever the locale, so a run in the C locale
        # writes the bytes a UTF-8 run writes.
        flows = tmp_path / "flows.csv"
        write_flow_csv(synth_generate(SynthConfig(n_flows=600), 42), range(600), flows)
        class_map = tmp_path / "map.csv"
        class_map.write_text("raw,class\nPortScan,Déni\n", encoding="utf-8")
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[dataset]\nsource = csv\npath = {flows}\nclass_map = {class_map}\n", encoding="utf-8"
        )
        src = str(Path(cli.__file__).parents[1])
        written = {}
        locales = {"utf8": {"PYTHONUTF8": "1"}, "c": {"LC_ALL": "C", "PYTHONUTF8": "0"}}
        for name, env in locales.items():
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "fuzztriage.cli", "rank", "--config", str(ini),
                 "--out", str(out)],
                env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            written[name] = {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        assert written["c"] == written["utf8"]
        assert "Déni".encode("utf-8") in written["c"][Path("calibration", "heights.csv")]

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("[run]\ngarbage\nmore garbage\n", "line 2: not [section] or key = value"),
            ("seed = 1\n[run]\n", "line 1: text before the first [section]"),
            ("[run]\n[synth]\n[run]\n", "line 3: section 'run' already exists"),
            ("[run]\nseed = 1\nseed = 2\n", "line 3: option 'seed' in section 'run' already exists"),
        ],
    )
    def test_unparsable_ini_is_one_line(self, tmp_path, capsys, text, fault):
        ini = tmp_path / "run.ini"
        ini.write_text(text, encoding="utf-8")
        rc = cli.main(["prepare", "--config", str(ini), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {ini}: {fault}"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_malformed_catalog_fails_prepare_at_load(self, tmp_path, capsys, no_stage_runs):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("class,cvss,uf\nDoS,7.8\n", encoding="utf-8")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[dataset]\ncatalog = {catalog}\n", encoding="utf-8")
        rc = cli.main(["prepare", "--config", str(ini), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {catalog}: row 2 has 2 fields, expected 3"
        ]
        assert not (tmp_path / "r").exists()

    def test_bad_ini_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[rankings]\nkappa = 1\n", encoding="utf-8")
        rc = cli.main(["prepare", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "unknown section" in capsys.readouterr().err

    def test_validation_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(
            "[synth]\nn_flows = 300\n[split]\nmode = stratified\nfractions = 0.7, 0.0, 0.3\n",
            encoding="utf-8",
        )
        rc = cli.main(["calibrate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "validation split is empty" in capsys.readouterr().err

    def test_scores_file_without_scores_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,p\n", encoding="utf-8")
        path = tmp_path / "run.ini"
        path.write_text(
            f"[synth]\nn_flows = 300\n[detector]\nmode = external_scores\nscores_path = {scores}\n",
            encoding="utf-8",
        )
        rc = cli.main(["evaluate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "no scores" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_duplicate_column_exits_2(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("Fwd Header Length,Fwd Header Length,Label\n1,2,BENIGN\n", encoding="utf-8")
        path = tmp_path / "run.ini"
        path.write_text(f"[dataset]\nsource = csv\npath = {flows}\n", encoding="utf-8")
        rc = cli.main(["prepare", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"{flows}: duplicate column 'Fwd Header Length'" in capsys.readouterr().err

    def test_runtime_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise EvaluationError("queues do not cover the same alerts")

        monkeypatch.setattr(pipeline, "prepare_data", boom)
        rc = cli.main(["prepare", "--out", str(tmp_path)])
        assert rc == 3
        assert "error: queues do not cover" in capsys.readouterr().err

    def test_parser_lists_all_subcommands(self):
        parser = cli.build_parser()
        assert parser.prog == "fuzztriage"
        for command in ("prepare", "calibrate", "rank", "evaluate", "stress"):
            args = parser.parse_args([command])
            assert args.command == command


# --- numpy.ma stays unimported ---------------------------------------------


def loads_numpy_ma(code):
    """Whether a fresh interpreter that runs ``code`` ends with numpy.ma
    imported."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('numpy.ma' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
def test_command_does_not_import_numpy_ma(tmp_path, command):
    # On numpy 2, np.unique and np.percentile import numpy.ma on first use,
    # at 15-19 ms and a few MiB per command; numpy 1.x imports it with numpy.
    if loads_numpy_ma("import numpy"):
        pytest.skip("import numpy alone imports numpy.ma")
    ini = tmp_path / "run.ini"
    ini.write_text("[synth]\nn_flows = 600\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(ini), "--out", str(out)]
    assert not loads_numpy_ma(f"from fuzztriage import cli\nassert cli.main({argv!r}) == 0")
    if command == "evaluate":
        assert data_rows(out / "eval" / "bootstrap.csv")


# --- degenerate inputs at the command line ---------------------------------

EVALUATE_FILES = {
    *(f"splits/{name}.csv" for name in ("train", "validation", "test")),
    "calibration/heights.csv",
    *(f"queues/queue_{name}.csv" for name in ("severity_only", "confidence_only", "weighted_sum",
                                               "risk_averse_k1")),
    *(f"eval/{name}" for name in ("detector.csv", "metrics.csv", "bands.csv", "bootstrap.csv",
                                  "scenarios.csv", "summary.txt")),
}
SKIPPED_PLATT = (
    "WARNING fuzztriage.detector: validation labels contain a single class; skipping calibration"
)
NO_PREDICTED_ATTACK = (
    "WARNING fuzztriage.pipeline: no alert is a predicted attack; "
    "the pred metrics and the paired bootstrap are skipped"
)
NO_PREDICTED_ATTACK_SWEEP = (
    "WARNING fuzztriage.pipeline: no alert is a predicted attack; "
    "the pred metrics, the paired bootstrap and the sensitivity sweep are skipped"
)


def nothing_written(out):
    assert not out.exists()


def tiny_report(n_alerts, predicted, sweep=False):
    """An evaluate run over ``n_alerts`` test alerts whose detector finds
    none of the attacks, so it reports F1 0. Unless some alert is a
    ``predicted`` attack, the paired bootstrap (and with the ``sweep`` on,
    the sensitivity sweep) is skipped and the summary says so."""

    def check(out):
        assert {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()} == EVALUATE_FILES
        for queue in (out / "queues").iterdir():
            assert len(data_rows(queue)) == n_alerts
        assert data_rows(out / "eval" / "detector.csv")[0].split(",")[-1] == "0"
        assert bool(data_rows(out / "eval" / "bootstrap.csv")) == predicted
        summary = (out / "eval" / "summary.txt").read_text(encoding="utf-8").splitlines()
        skipped = "no alert is a predicted attack: " + (
            "pred metrics, paired bootstrap and sensitivity sweep skipped" if sweep
            else "pred metrics and paired bootstrap skipped"
        )
        assert (skipped in summary) == (not predicted)

    return check


def cutoff_past_queue_end(out):
    # The test split has 240 flows, so @240 is the full queue and @100000
    # must score the same.
    assert len(data_rows(out / "splits" / "test.csv")) == 240
    rows = [line.split(",") for line in data_rows(out / "eval" / "metrics.csv")]
    ndcg = {tuple(row[:3]): row[3] for row in rows}
    big = [key for key in ndcg if key[2] == "100000"]
    assert len(big) == 8
    for method, queue, _ in big:
        assert ndcg[method, queue, "100000"] == ndcg[method, queue, "240"]


def scores_text(ids):
    """An ``id,p`` external scores file giving each of ``ids`` some p."""
    return "id,p\n" + "".join(f"{i},{n * 37 % 100 / 100:g}\n" for n, i in enumerate(ids))


def flows_text(attack_label, days=(), n_rows=400):
    """A flow CSV whose attacks all carry ``attack_label`` and whose rows,
    if ``days`` are given, carry them in turn."""
    rng = np.random.default_rng(7)
    attack = rng.random(n_rows) < 0.25
    features = rng.normal(0.0, 1.0, size=(n_rows, 3)) + 1.2 * attack[:, None]
    rows = (
        f"{a:.4f},{b:.4f},{c:.4f},{attack_label if is_attack else 'BENIGN'}"
        + (f",{days[n % len(days)]}\n" if days else "\n")
        for n, ((a, b, c), is_attack) in enumerate(zip(features.tolist(), attack.tolist()))
    )
    return "f1,f2,f3,Label" + (",Day\n" if days else "\n") + "".join(rows)


def full_external_scores(out):
    # every alert carries the p its id has in the scores file
    p_by_id = dict(line.split(",") for line in scores_text(flow_ids(range(300))).splitlines()[1:])
    assert {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()} == EVALUATE_FILES
    assert data_rows(out / "eval" / "detector.csv")[0].startswith("external_scores,")
    rows = [line.split(",") for line in data_rows(out / "queues" / "queue_confidence_only.csv")]
    assert len(rows) == len(data_rows(out / "splits" / "test.csv")) == 120
    assert all(float(row[7]) == float(p_by_id[row[1]]) for row in rows)


def dropped_rows_inputs():
    """A flow CSV whose data rows 1 and 2 are dropped (an Infinity and a
    non-numeric cell), and scores keyed by data row (counted from 0): p 0.9
    for each attack row and 0.2 for each benign one."""
    header, *rows = flows_text("DoS Hulk").splitlines()
    for n, cell in ((1, "Infinity"), (2, "n/a")):
        rows[n] = cell + rows[n][rows[n].index(","):]
    p = ("0.2" if row.endswith("BENIGN") else "0.9" for row in rows)
    scores = "".join(f"{i},{q}\n" for i, q in zip(flow_ids(range(len(rows))), p))
    return {"flows.csv": "\n".join([header, *rows]) + "\n", "scores.csv": "id,p\n" + scores}


def scores_follow_source_rows(out):
    # an alert's id names its flow's data row, dropped rows counted, so each
    # alert gets its own row's p: 0.9 exactly when its label is 1
    rows = [line.split(",") for line in data_rows(out / "queues" / "queue_confidence_only.csv")]
    assert len(rows) == len(data_rows(out / "splits" / "test.csv")) > 0
    assert {(row[7], row[9]) for row in rows} == {("0.9", "1"), ("0.2", "0")}
    assert not {"flow-00001", "flow-00002"} & {row[1] for row in rows}


def unmapped_class_calibrated(out):
    # the unmapped label becomes UNKNOWN_CLASS, which the validation split
    # holds, so it ranks with a height calibrated from its F1, not the
    # neutral NOVEL_CLASS_HEIGHT
    heights = data_rows(out / "calibration" / "heights.csv")
    table = {row.split(",")[0]: row.split(",") for row in heights}
    f1, h_class = (float(v) for v in table[UNKNOWN_CLASS][6:8])
    assert f"{h_class:.10g}" == f"{class_height(f1, HeightParams()):.10g}" == "0.8"
    assert h_class != NOVEL_CLASS_HEIGHT
    rows = [line.split(",") for line in data_rows(out / "queues" / "queue_risk_averse_k1.csv")]
    novel = [row for row in rows if row[8] == UNKNOWN_CLASS]
    assert novel
    for row in novel:
        assert row[6] == f"{max(min(h_class, float(row[7])), HEIGHT_FLOOR):.10g}"


EXTERNAL_SCORES_INI = (
    "[synth]\nn_flows = 300\n[detector]\nmode = external_scores\n"
    "scores_path = {dir}/scores.csv\n"
)

# name -> files written beside the INI, whose directory "{dir}" names in the INI text
DEGENERATE_INPUTS = {
    "external_scores_full": {"scores.csv": scores_text(flow_ids(range(300)))},
    "external_scores_65pct": {"scores.csv": scores_text(flow_ids(range(195)))},
    "external_scores_1pct": {"scores.csv": scores_text(flow_ids(range(3)))},
    "external_scores_0pct": {"scores.csv": scores_text(["elsewhere-0"])},
    # Mystery-Attack maps to no class
    "only_unmapped_attacks": {"flows.csv": flows_text("Mystery-Attack")},
    # day-based splits with no Monday or Tuesday rows, and no Thursday or Friday rows
    "empty_train_split": {"flows.csv": flows_text("DoS Hulk", ("Wednesday", "Thursday", "Friday"))},
    "empty_test_split": {"flows.csv": flows_text("DoS Hulk", ("Monday", "Tuesday", "Wednesday"))},
    "external_scores_dropped_rows": dropped_rows_inputs(),
    # one row's Day cell is empty
    "empty_day_cell": {
        "flows.csv": flows_text(
            "DoS Hulk", ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday"), n_rows=300
        ).replace(",Thursday\n", ",\n", 1),
    },
    "catalog_malformed": {"catalog.csv": "class,cvss,uf\nDoS,high,0.2\n"},
    # a valid uf of 0.45 that the sweep's uf_scale point 1.2 lifts past 0.5
    "sweep_uf_scale_past_catalog": {"catalog.csv": "class,cvss,uf\nInfiltration,9.0,0.45\n"},
    # a catalog without most of the data's classes, which get the default uf 0.35
    "uf_scale_past_default_uf": {"catalog.csv": "class,cvss,uf\nDoS,7.8,0.2\nbenign,0.0,0.1\n"},
}
DAY_BASED_CSV_INI = "[dataset]\nsource = csv\npath = {dir}/flows.csv\n[split]\nmode = day_based\n"

# name -> (INI text, exit code of `evaluate`, stderr lines with "{ini}" for
# the INI path, check of the output directory)
DEGENERATE_RUNS = {
    "six_flows": (
        "[synth]\nn_flows = 6\n", 0,
        ["WARNING fuzztriage.ingestion: class DoS has 1 rows, fewer than 3; placing all in train",
         SKIPPED_PLATT, NO_PREDICTED_ATTACK],
        tiny_report(2, predicted=False),
    ),
    "twelve_flows": (
        "[synth]\nn_flows = 12\n", 0, [SKIPPED_PLATT], tiny_report(4, predicted=True)
    ),
    "forty_flows_sweep": (
        "[synth]\nn_flows = 40\n[evaluation]\nsweep = true\n", 0,
        [NO_PREDICTED_ATTACK_SWEEP], tiny_report(16, predicted=False, sweep=True),
    ),
    "cutoff_past_queue_end": (
        "[synth]\nn_flows = 600\n[evaluation]\ncutoffs = 10, 240, 100000\n", 0, [],
        cutoff_past_queue_end,
    ),
    "empty_validation_split": (
        "[synth]\nn_flows = 300\n[split]\nmode = stratified\nfractions = 0.7, 0.0, 0.3\n",
        2,
        ["error: validation split is empty; cannot calibrate heights"],
        nothing_written,
    ),
    **{
        f"zero_{part}_fraction": (
            f"[synth]\nn_flows = 300\n[split]\nmode = stratified\nfractions = {fractions}\n",
            2,
            [f"error: {{ini}}: split.fractions need train and test > 0, got {expected}"],
            nothing_written,
        )
        for part, fractions, expected in (
            ("test", "0.7, 0.3, 0", "(0.7, 0.3, 0.0)"), ("train", "0, 0.5, 0.5", "(0.0, 0.5, 0.5)")
        )
    },
    "nan_fraction": (
        "[synth]\nn_flows = 300\n[split]\nmode = stratified\nfractions = 0.5, nan, 0.5\n", 2,
        ["error: {ini}: split.fractions must be finite, got (0.5, nan, 0.5)"], nothing_written,
    ),
    **{
        f"synth_{key}": (
            f"[synth]\nn_flows = 300\n{key} = {text}\n", 2, [f"error: {{ini}}: {message}"],
            nothing_written,
        )
        for key, text, message in (
            ("separation", "nan", "synth.separation must be finite, got nan"),
            ("attack_flag_sd", "-1", "synth.attack_flag_sd must be >= 0, got -1.0"),
        )
    },
    **{
        f"single_class_{share}": (
            f"[synth]\nn_flows = 300\nattack_fraction = {share}\n", 2,
            [f"error: training data contains a single class: {share}"], nothing_written,
        )
        for share in ("0", "1")
    },
    "external_scores_full": (EXTERNAL_SCORES_INI, 0, [], full_external_scores),
    **{
        f"external_scores_{share}": (EXTERNAL_SCORES_INI, 2, [message], nothing_written)
        for share, message in (
            ("65pct", "error: external scores miss 21 of 60 validation ids (first: 'flow-00197')"),
            ("1pct", "error: external scores miss 59 of 60 validation ids (first: 'flow-00007')"),
            ("0pct", "error: external scores miss 60 of 60 validation ids (first: 'flow-00002')"),
        )
    },
    "external_scores_dropped_rows": (
        "[dataset]\nsource = csv\npath = {dir}/flows.csv\n"
        "[detector]\nmode = external_scores\nscores_path = {dir}/scores.csv\n",
        0,
        ["WARNING fuzztriage.pipeline: dropped 2 rows with non-numeric or non-finite features"],
        scores_follow_source_rows,
    ),
    "only_unmapped_attacks": (
        "[dataset]\nsource = csv\npath = {dir}/flows.csv\n", 0, [], unmapped_class_calibrated,
    ),
    "empty_train_split": (
        DAY_BASED_CSV_INI, 2, ["error: training split is empty; cannot train the detector"],
        nothing_written,
    ),
    "empty_test_split": (
        DAY_BASED_CSV_INI, 2, ["error: test split is empty; there are no alerts to rank"],
        nothing_written,
    ),
    "empty_day_cell": (
        "[dataset]\nsource = csv\npath = {dir}/flows.csv\n", 2, ["error: unknown day tags: ''"],
        nothing_written,
    ),
    "dataset_path_is_directory": (
        "[dataset]\nsource = csv\npath = {dir}\n", 2,
        ["error: {ini}: dataset.path is not a file: {dir}"], nothing_written,
    ),
    "catalog_is_directory": (
        "[dataset]\ncatalog = {dir}\n", 2,
        ["error: {ini}: dataset.catalog is not a file: {dir}"], nothing_written,
    ),
    "dataset_path_missing": (
        "[dataset]\nsource = csv\npath = {dir}/missing.csv\n", 2,
        ["error: {ini}: dataset.path does not exist: {dir}/missing.csv"], nothing_written,
    ),
    # checked against the bundled catalog at load, before any stage runs
    "uf_scale_past_catalog": (
        "[synth]\nn_flows = 300\n[ranking]\nuf_scale = 2\n", 2,
        ["error: {ini}: ranking.uf_scale 2.0 puts the uf of class 'Infiltration' at 0.7, "
         "outside (0, 0.5]"],
        nothing_written,
    ),
    # checked at load too, before the detector is trained, and blamed on the sweep
    "sweep_uf_scale_past_catalog": (
        "[synth]\nn_flows = 3000\n[dataset]\ncatalog = {dir}/catalog.csv\n"
        "[evaluation]\nsweep = true\n", 2,
        ["error: {ini}: evaluation.sweep point uf_scale 1.2 puts the uf of class 'Infiltration' "
         "at 0.54, outside (0, 0.5]"],
        nothing_written,
    ),
    # checked once the data's classes are known, before the detector is
    # trained; before, the alert stage rejected it with no source or key
    "uf_scale_past_default_uf": (
        "[synth]\nn_flows = 300\n[dataset]\ncatalog = {dir}/catalog.csv\n"
        "[ranking]\nuf_scale = 1.5\n", 2,
        ["error: {ini}: ranking.uf_scale 1.5 puts the uf of class 'Bot' at "
         "0.5249999999999999, outside (0, 0.5]"],
        nothing_written,
    ),
    "catalog_malformed": (
        "[dataset]\ncatalog = {dir}/catalog.csv\n", 2,
        ["error: {dir}/catalog.csv: bad catalog class row 2: "
         "could not convert string to float: 'high'"],
        nothing_written,
    ),
}


class TestDegenerateInputs:
    """Each degenerate run exits 0 with a pinned result, or exits 2 or 3
    with a named message and writes nothing; stderr holds exactly the
    listed lines and never a traceback."""

    @pytest.mark.parametrize("name", list(DEGENERATE_RUNS))
    def test_degenerate_input(self, tmp_path, name):
        ini_text, code, stderr_lines, check = DEGENERATE_RUNS[name]
        for file_name, text in DEGENERATE_INPUTS.get(name, {}).items():
            (tmp_path / file_name).write_text(text, encoding="utf-8")
        ini = tmp_path / "run.ini"
        ini.write_text(ini_text.replace("{dir}", str(tmp_path)), encoding="utf-8")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fuzztriage.cli", "evaluate", "--config", str(ini),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True, text=True, encoding="utf-8",
        )
        assert proc.returncode == code, proc.stderr
        expected = [
            line.replace("{ini}", str(ini)).replace("{dir}", str(tmp_path)) for line in stderr_lines
        ]
        assert proc.stderr.splitlines() == expected
        check(out)

    @pytest.mark.parametrize("command", ["prepare", "calibrate"])
    def test_uf_scale_past_default_uf_leaves_commands_without_alerts(self, tmp_path, command):
        # prepare and calibrate build no alerts, so no uf is ever scaled
        for file_name, text in DEGENERATE_INPUTS["uf_scale_past_default_uf"].items():
            (tmp_path / file_name).write_text(text, encoding="utf-8")
        ini = tmp_path / "run.ini"
        ini_text = DEGENERATE_RUNS["uf_scale_past_default_uf"][0]
        ini.write_text(ini_text.replace("{dir}", str(tmp_path)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "fuzztriage.cli", command, "--config", str(ini),
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True, text=True, encoding="utf-8",
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "out" / "splits").is_dir()


class TestWriteEvalBytes:
    """The eval CSVs of a hand-built report, pinned byte for byte."""

    @pytest.fixture
    def written(self, tmp_path):
        config = load_config(None, out_dir=str(tmp_path), kappas=(1.0, 0.5))
        tables = EvalTables(
            detector=DetectorReport(0.9375, 2 / 3, 0.8, 0.7272727272727273),
            predicted=True,
            metrics=(
                MetricRow("severity_only", "full", 10, 0.123456789012),
                MetricRow("risk_averse_k1", "pred", 100, 1.0),
            ),
            bands={
                "severity_only": (
                    BandResult(Band(0.0, 0.5), 0, None),
                    BandResult(Band(0.5, 1.0, closed=True), 7, 1 / 3),
                ),
            },
            bootstrap={
                "severity_only": BootstrapResult(-0.0125, -0.05, 0.025, 0.001, 1000, 500),
                "risk_averse_k0.5": BootstrapResult(1e-05, 0.0, 2.5e-05, 1.0, 200, 50),
            },
            scenarios=(
                ScenarioResult(ScenarioKind.NOISE, Method.RISK_AVERSE, 100, 0.8, 0.6),
                ScenarioResult(ScenarioKind.OVERCONFIDENT, Method.SEVERITY_ONLY, 100, 0.0, 0.25),
            ),
            sweep=SweepReport(
                cutoffs=(10, 100),
                points=(
                    SweepPoint("alpha", 0.5, (0.75, 0.5)),
                    SweepPoint("alpha", 0.9, (0.875, 0.625)),
                ),
                spread_by_cutoff=(0.125, 0.125),
                parameter_spread={"alpha": (0.125, 0.125)},
            ),
        )
        paths = write_eval(config, tables, artifact_stamp(config))
        return {p.name: p.read_bytes() for p in paths}

    STAMP = b"# config_hash=18ff86c125bb seed=42\n"
    EXPECTED = {
        "detector.csv": (
            b"mode,accuracy,precision,recall,f1\n"
            b"train_full,0.9375,0.6666666667,0.8,0.7272727273\n"
        ),
        "metrics.csv": (
            b"method,queue,cutoff,ndcg\n"
            b"severity_only,full,10,0.123456789\n"
            b"risk_averse_k1,pred,100,1\n"
        ),
        "bands.csv": (
            b"method,band_lo,band_hi,count,ndcg\n"
            b"severity_only,0,0.5,0,\n"
            b"severity_only,0.5,1,7,0.3333333333\n"
        ),
        "bootstrap.csv": (
            b"method,baseline,k,delta,ci_low,ci_high,p_value,resamples\n"
            b"severity_only,risk_averse_k1,500,-0.0125,-0.05,0.025,0.001,1000\n"
            b"risk_averse_k0.5,risk_averse_k1,50,1e-05,0,2.5e-05,1,200\n"
        ),
        "scenarios.csv": (
            b"scenario,method,k,ndcg_before,ndcg_after,change_pct\n"
            b"noise,risk_averse,100,0.8,0.6,-25\n"
            b"overconfident,severity_only,100,0,0.25,\n"
        ),
        "sweep.csv": (
            b"kind,parameter,value,ndcg_at10_pred,ndcg_at100_pred\n"
            b"point,alpha,0.5,0.75,0.5\n"
            b"point,alpha,0.9,0.875,0.625\n"
            b"parameter_spread,alpha,,0.125,0.125\n"
            b"overall_spread,,,0.125,0.125\n"
        ),
    }

    def test_file_order(self, written):
        assert list(written) == [*self.EXPECTED, "summary.txt"]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_bytes(self, written, name):
        assert written[name] == self.STAMP + self.EXPECTED[name]


class TestSweepCsvBytes:
    """The sweep CSV of a small categorical evaluate run at uf scale 1.2,
    pinned byte for byte below its stamp line."""

    INI = (
        "[synth]\nn_flows = 600\n\n"
        "[ranking]\ncf_mode = categorical\nuf_scale = 1.2\n\n"
        "[evaluation]\nsweep = true\nbootstrap_k = 50\nbootstrap_resamples = 200\n"
    )
    EXPECTED = (
        b"kind,parameter,value,ndcg_at10_pred,ndcg_at100_pred\n"
        b"point,alpha,0.5,0.960353924,0.9719906671\n"
        b"point,alpha,0.7,0.960353924,0.9719906671\n"
        b"point,alpha,0.9,0.9602404674,0.9718887401\n"
        b"point,alpha,0.95,0.9602404674,0.9718887401\n"
        b"point,h_min,0.01,0.9602404674,0.9718887401\n"
        b"point,h_min,0.05,0.9602404674,0.9718887401\n"
        b"point,h_min,0.1,0.9602404674,0.9718887401\n"
        b"point,h_max,0.9,0.9602404674,0.9718887401\n"
        b"point,h_max,0.95,0.9602404674,0.9718887401\n"
        b"point,h_max,0.99,0.9602404674,0.9718887401\n"
        b"point,uf_scale,0.8,0.960353924,0.9719906671\n"
        b"point,uf_scale,1,0.960353924,0.9719906671\n"
        b"point,uf_scale,1.2,0.9602404674,0.9718887401\n"
        b"point,kappa,0,0.960353924,0.9719906671\n"
        b"point,kappa,0.5,0.9602404674,0.9718887401\n"
        b"point,kappa,1,0.9602404674,0.9718887401\n"
        b"point,kappa,1.5,0.9578563185,0.9718137405\n"
        b"point,kappa,2,0.9578563185,0.9719899137\n"
        b"parameter_spread,alpha,,0.0001134566483,0.00010192703\n"
        b"parameter_spread,h_min,,0,0\n"
        b"parameter_spread,h_max,,0,0\n"
        b"parameter_spread,uf_scale,,0.0001134566483,0.00010192703\n"
        b"parameter_spread,kappa,,0.002497605502,0.0001769265959\n"
        b"overall_spread,,,0.002497605502,0.0001769265959\n"
    )

    def test_bytes(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(self.INI, encoding="utf-8")
        out = tmp_path / "out"
        rc = cli.main(
            ["evaluate", "--config", str(ini), "--out", str(out), "--kappa", "0.5,1"]
        )
        assert rc == 0
        stamp, rest = (out / "eval" / "sweep.csv").read_bytes().split(b"\n", 1)
        assert stamp.startswith(b"# config_hash=")
        assert rest == self.EXPECTED
