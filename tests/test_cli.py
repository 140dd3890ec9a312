"""End-to-end pipeline commands and the command-line front end.

Runs use a small synthetic corpus so the whole module stays fast; the
full-size defaults are exercised by the acceptance tests.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzztriage import cli
from fuzztriage.calibration import CALIBRATION_HEADER
from fuzztriage.config import (
    DetectorMode,
    artifact_stamp,
    canonical_lines,
    config_hash,
    load_config,
)
from fuzztriage.detector import DetectorReport
from fuzztriage.errors import EvaluationError, ValidationError
from fuzztriage.evaluation import (
    DEFAULT_SWEEP_GRID,
    Band,
    BandResult,
    BootstrapResult,
    ScenarioKind,
    ScenarioResult,
    SweepPoint,
    SweepReport,
)
from fuzztriage.ingestion import SplitMode, SynthConfig, synth_generate, write_flow_csv
from fuzztriage.pipeline import (
    SWEEP_CUTOFFS,
    EvalTables,
    MetricRow,
    cmd_calibrate,
    cmd_evaluate,
    cmd_prepare,
    cmd_rank,
    cmd_stress,
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
    return cmd_prepare(config)


@pytest.fixture(scope="module")
def rank_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("rank")
    return cmd_rank(small_config(out, kappas=[0.0, 1.5]))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    return cmd_evaluate(small_config(out))


@pytest.fixture(scope="module")
def stress_run(tmp_path_factory, full_run):
    out = tmp_path_factory.mktemp("stress")
    config = dataclasses.replace(full_run.config, out_dir=str(out))
    return cmd_stress(config)


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
        again = cmd_prepare(dataclasses.replace(prepare_run.config, out_dir=str(tmp_path)))
        for old, new in zip(prepare_run.written, again.written):
            assert new.read_bytes() == old.read_bytes()

    def test_different_seed_changes_data(self, prepare_run, tmp_path):
        other = cmd_prepare(small_config(tmp_path, seed=43))
        old_rows = data_rows(prepare_run.written[0])
        new_rows = data_rows(other.written[0])
        assert new_rows != old_rows


@pytest.fixture(scope="module")
def calibrate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("calib")
    return cmd_calibrate(small_config(out, n_flows=400))


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
            cmd_calibrate(dataclasses.replace(config, split=split))


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
    return cmd_evaluate(small_config(out, n_flows=400, sweep=True))


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
        assert stress_run.tables.detector_mode is DetectorMode.TRAIN_FLAGS_ONLY
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

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["prepare", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_kappa_exits_2(self, tmp_path, capsys):
        rc = cli.main(["rank", "--out", str(tmp_path), "--kappa", "one"])
        assert rc == 2
        assert "kappa" in capsys.readouterr().err

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
        write_flow_csv(synth_generate(SynthConfig(n_flows=600)), flows)
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

    @pytest.mark.parametrize("fractions", ["0.7, 0.3, 0", "0, 0.5, 0.5"])
    def test_zero_train_or_test_fraction_exits_2(self, tmp_path, capsys, fractions):
        path = tmp_path / "run.ini"
        path.write_text(
            f"[synth]\nn_flows = 300\n[split]\nmode = stratified\nfractions = {fractions}\n",
            encoding="utf-8",
        )
        rc = cli.main(["evaluate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "split.fractions" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("attack_fraction", ["0", "1"])
    def test_single_class_training_data_exits_2(self, tmp_path, capsys, attack_fraction):
        path = tmp_path / "run.ini"
        path.write_text(
            f"[synth]\nn_flows = 300\nattack_fraction = {attack_fraction}\n", encoding="utf-8"
        )
        rc = cli.main(["evaluate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"single class: {attack_fraction}" in err
        assert "array(" not in err

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

        monkeypatch.setitem(cli._COMMANDS, "prepare", boom)
        rc = cli.main(["prepare", "--out", str(tmp_path)])
        assert rc == 3
        assert "error: queues do not cover" in capsys.readouterr().err

    def test_parser_lists_all_subcommands(self):
        parser = cli.build_parser()
        assert parser.prog == "fuzztriage"
        for command in ("prepare", "calibrate", "rank", "evaluate", "stress"):
            args = parser.parse_args([command])
            assert args.command == command


class TestWriteEvalBytes:
    """The eval CSVs of a hand-built report, pinned byte for byte."""

    @pytest.fixture
    def written(self, tmp_path):
        config = load_config(None, out_dir=str(tmp_path), kappas=(1.0, 0.5))
        tables = EvalTables(
            detector=DetectorReport(0.9375, 2 / 3, 0.8, 0.7272727272727273),
            detector_mode=DetectorMode.TRAIN_FULL,
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
        paths = write_eval(config, tables)
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
