"""Detector training, Platt calibration, feature subsets, score files."""

from __future__ import annotations

import dataclasses
import logging
import weakref

import numpy as np
import pytest

from fuzztriage import pipeline
from fuzztriage.config import load_config
from fuzztriage.detector import (
    ATTACK_THRESHOLD,
    DetectorConfig,
    DetectorReport,
    LinearModel,
    flags_only_subset,
    load_external_scores,
    load_model,
    lookup_scores,
    logistic_loss_gradient,
    platt_calibrate,
    sample_weights,
    save_model,
    train_lr,
)
from fuzztriage.errors import ParseError, ValidationError
from fuzztriage.ingestion import (
    FLAG_FEATURE_NAMES,
    STRONG_FEATURE_NAMES,
    SynthConfig,
    apply_normalization,
    binary_labels,
    fit_normalization,
    map_attack_types,
    synth_generate,
)


def toy_separable():
    X = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]])
    y = np.array([0, 0, 1, 1])
    return X, y


def imbalanced_set(seed=0, n0=200, n1=20):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n0, 3))
    X1 = rng.normal(1.5, 1.0, size=(n1, 3))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return X, y


class TestTraining:
    def test_separable_toy_set(self):
        X, y = toy_separable()
        model = train_lr(X, y)
        assert np.array_equal(model.predict_proba(X) >= ATTACK_THRESHOLD, y == 1)

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            train_lr(X, np.zeros(4))

    def test_non_binary_labels_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValidationError, match=r"^labels must be binary 0/1, got 0, 1, 2$"):
            train_lr(X, np.array([0, 1, 2]))
        with pytest.raises(ValidationError, match=r"^labels must be binary 0/1, got 0, 1, nan$"):
            train_lr(X, np.array([0.0, 1.0, np.nan]))

    def test_single_class_checked_before_binary(self):
        with pytest.raises(ValidationError, match=r"^training data contains a single class: 2$"):
            train_lr(np.zeros((3, 2)), np.array([2, 2, 2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            train_lr(np.zeros((3, 2)), np.zeros(4))

    def test_deterministic(self):
        X, y = imbalanced_set()
        a = train_lr(X, y)
        b = train_lr(X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_feature_names_kept(self):
        X, y = toy_separable()
        model = train_lr(X, y, feature_names=["f0", "f1"])
        assert model.feature_names == ("f0", "f1")
        with pytest.raises(ValidationError):
            train_lr(X, y, feature_names=["f0"])

    def test_bad_config(self):
        with pytest.raises(ValidationError, match="l2_c must be positive"):
            DetectorConfig(l2_c=0.0)
        with pytest.raises(ValidationError, match="l2_c must be positive"):
            DetectorConfig(l2_c=float("nan"))
        with pytest.raises(ValidationError, match="max_iters must be >= 1"):
            DetectorConfig(max_iters=0)
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            DetectorConfig(tol=float("nan"))

    def test_unconverged_solver_warns(self, caplog):
        X, y = imbalanced_set()
        with caplog.at_level(logging.WARNING, logger="fuzztriage.detector"):
            train_lr(X, y, DetectorConfig(max_iters=1, tol=0.0))
        (message,) = [r.getMessage() for r in caplog.records]
        assert message.startswith(
            "detector solver stopped after 1 iterations without reaching tol 0:"
        )
        assert "max |grad| = " in message

    def test_default_solver_converges_silently(self, caplog):
        flows = synth_generate(SynthConfig(n_flows=2000), 42)
        X = apply_normalization(flows.features, fit_normalization(flows.features))
        y = binary_labels(map_attack_types(flows.labels))
        with caplog.at_level(logging.WARNING, logger="fuzztriage.detector"):
            for features, labels in (toy_separable(), imbalanced_set(), (X, y)):
                train_lr(features, labels)
        assert caplog.records == []


class TestBalancedWeights:
    def test_each_class_carries_half(self):
        y = np.array([0, 0, 0, 1])
        w = sample_weights(y)
        assert w[y == 0].sum() == pytest.approx(w[y == 1].sum())

    def test_missing_class_rejected(self):
        with pytest.raises(ValidationError):
            sample_weights(np.zeros(3, dtype=int))

    def test_gradient_identity_with_duplication(self):
        # on a 2:1 imbalanced set, balanced weighting must equal uniform
        # weighting after duplicating every minority row once; both calls
        # normalize by their own sample count, so outputs match directly
        X = np.array(
            [[0.0, 1.0], [1.0, 0.5], [2.0, -1.0], [1.5, 2.0], [0.5, 0.5], [2.5, 1.0]]
        )
        y = np.array([0, 0, 0, 0, 1, 1])
        w0 = np.zeros(2)

        sw = sample_weights(y)
        loss_bal, gw_bal, gb_bal = logistic_loss_gradient(X, y, w0, 0.0, sw, lam=1.0)

        minority = np.flatnonzero(y == 1)
        X_dup = np.vstack([X, X[minority]])
        y_dup = np.concatenate([y, y[minority]])
        ones = np.ones(y_dup.shape[0])
        loss_dup, gw_dup, gb_dup = logistic_loss_gradient(
            X_dup, y_dup, w0, 0.0, ones, lam=1.0
        )

        assert loss_bal == pytest.approx(loss_dup, abs=1e-6)
        np.testing.assert_allclose(gw_bal, gw_dup, atol=1e-6)
        assert gb_bal == pytest.approx(gb_dup, abs=1e-6)


class TestPlatt:
    def test_monotone_in_score(self):
        X, y = imbalanced_set()
        model = platt_calibrate(train_lr(X, y), X, y)
        assert model.calibrator is not None
        order = np.argsort(model.decision(X))
        probs = model.predict_proba(X)
        assert np.all(np.diff(probs[order]) >= -1e-12)

    def test_single_class_validation_skips(self, caplog):
        X, y = toy_separable()
        model = train_lr(X, y)
        with caplog.at_level(logging.WARNING):
            calibrated = platt_calibrate(model, X, np.ones(4))
        assert calibrated.calibrator is None
        assert any("single class" in r.getMessage() for r in caplog.records)

    def test_perfectly_calibrated_scores(self):
        # labels drawn from sigmoid(score) itself: the fitted map should sit
        # in the identity family (a near -1) and Brier must not get worse
        rng = np.random.default_rng(11)
        s = rng.normal(0.0, 2.0, size=4000)
        y = (rng.random(4000) < 1.0 / (1.0 + np.exp(-s))).astype(int)
        model = LinearModel(weights=np.array([1.0]), bias=0.0)
        calibrated = platt_calibrate(model, s.reshape(-1, 1), y)
        a, _ = calibrated.calibrator
        assert a == pytest.approx(-1.0, abs=0.15)
        brier_before = float(np.mean((model.predict_proba(s.reshape(-1, 1)) - y) ** 2))
        brier_after = float(np.mean((calibrated.predict_proba(s.reshape(-1, 1)) - y) ** 2))
        assert brier_after <= brier_before + 1e-4

    def test_improves_brier_under_class_weighting(self):
        # balanced training on a 10:1 set overstates minority probability;
        # calibration on held-out data has to repair the base rate
        X, y = imbalanced_set(seed=3, n0=400, n1=40)
        model = train_lr(X, y)
        X_val, y_val = imbalanced_set(seed=4, n0=400, n1=40)
        calibrated = platt_calibrate(model, X_val, y_val)
        before = float(np.mean((model.predict_proba(X_val) - y_val) ** 2))
        after = float(np.mean((calibrated.predict_proba(X_val) - y_val) ** 2))
        assert after <= before


class TestFlagsSubset:
    def test_synthetic_header(self):
        names = STRONG_FEATURE_NAMES + FLAG_FEATURE_NAMES
        idx = flags_only_subset(names)
        assert len(idx) == len(FLAG_FEATURE_NAMES)
        assert all("flag" in names[i].lower() for i in idx)

    def test_lowercase_names(self):
        names = ["fin_flag", "syn_flag", "rst_flag", "psh_flag", "ack_flag"]
        assert flags_only_subset(names) == [0, 1, 2, 3, 4]

    def test_too_few(self):
        with pytest.raises(ValidationError, match="needs at least 5 features, found 0$"):
            flags_only_subset(["duration", "bytes"])


class TestReport:
    def test_counts(self):
        y_true = np.array([1, 1, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 1, 0, 1, 0])
        r = DetectorReport.from_predictions(y_true, y_pred)
        assert r.accuracy == pytest.approx(4 / 6)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)

    def test_degenerate(self):
        r = DetectorReport.from_predictions(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            DetectorReport.from_predictions(np.zeros(3), np.zeros(4))


class TestExternalScores:
    def test_loads_map(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,p\nflow-1,0.9\nflow-2,0.1\nflow-3,0.5\n")
        scores = load_external_scores(path)
        assert scores == {"flow-1": 0.9, "flow-2": 0.1, "flow-3": 0.5}

    def test_out_of_range_row_named(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,p\nflow-1,1.2\n")
        with pytest.raises(ParseError, match="row 2"):
            load_external_scores(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,p\na,0.5\na,0.6\n")
        with pytest.raises(ParseError) as err:
            load_external_scores(path)
        assert str(err.value) == f"{path}: score 'a' at row 3 repeats row 2"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("flow,prob\na,0.5\n")
        with pytest.raises(ParseError):
            load_external_scores(path)

    def test_non_numeric_p(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,p\na,high\n")
        with pytest.raises(ParseError, match="row 2"):
            load_external_scores(path)

    @pytest.mark.parametrize("text", ["", "# comment only\n", "id,p\n", "id,p\n\n"])
    def test_no_scores(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="no scores"):
            load_external_scores(path)

    def test_scores_in_id_order(self):
        assert lookup_scores(["b", "a"], {"a": 0.9, "b": 0.0, "c": 1.0}, "test") == [0.0, 0.9]

    def test_missing_id_names_split_count_and_first(self, caplog):
        ids = [f"flow-{i}" for i in range(7)]
        with caplog.at_level(logging.WARNING):
            with pytest.raises(ValidationError) as info:
                lookup_scores(ids, {f"flow-{i}": 0.5 for i in (0, 1, 3, 4, 5, 6)}, "validation")
        assert str(info.value) == "external scores miss 1 of 7 validation ids (first: 'flow-2')"
        assert caplog.records == []  # no p is made up for the missing id
        with pytest.raises(ValidationError, match="miss 7 of 7 test ids"):
            lookup_scores(ids[::-1], {"a": 0.9}, "test")

    def test_no_ids_need_no_scores(self):
        assert lookup_scores([], {"a": 0.9}, "test") == []


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        X, y = imbalanced_set()
        model = platt_calibrate(train_lr(X, y, feature_names=["a", "b", "c"]), X, y)
        path = tmp_path / "model.csv"
        save_model(path, model, header_comment="config_hash=abc seed=1")
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.calibrator == model.calibrator
        assert loaded.feature_names == model.feature_names

    def test_incomplete_calibrator(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("term,value\nw:a,1.0\nbias,0.0\nplatt_a,-1.0\n")
        with pytest.raises(ParseError):
            load_model(path)

    def test_unknown_term(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("term,value\nw:a,1.0\nbias,0.0\ngamma,2.0\n")
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize(
        "rows, term, row, first",
        [
            ("w:a,1.0\nw:a,2.0\nbias,0.0\n", "w:a", 3, 2),
            ("w:a,1.0\nbias,0.0\nbias,0.5\n", "bias", 4, 3),
            ("w:a,1.0\nbias,0.0\nplatt_a,-1.0\nplatt_b,0.0\nplatt_a,-2.0\n", "platt_a", 6, 4),
        ],
    )
    def test_repeated_term(self, tmp_path, rows, term, row, first):
        path = tmp_path / "model.csv"
        path.write_text("term,value\n" + rows)
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: model term {term!r} at row {row} repeats row {first}"

    def test_spaced_terms_load(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("term,value\n w:a , 1.5\n\tbias ,0.25 \n platt_a,-1\nplatt_b , 0\n")
        model = load_model(path)
        assert model.feature_names == ("a",) and model.weights.tolist() == [1.5]
        assert model.bias == 0.25 and model.calibrator == (-1.0, 0.0)

    def test_missing_bias(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("term,value\nw:a,1.0\n")
        with pytest.raises(ParseError):
            load_model(path)


def test_linear_model_decision_linearity():
    model = LinearModel(weights=np.array([2.0, -1.0]), bias=0.5)
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(model.decision(X), [1.5, 0.5])


class TestRunDetector:
    def test_holds_one_split_matrix_at_a_time(self, tmp_path, monkeypatch):
        # Each split's gathered matrix is scaled, used and dropped before the
        # next one is gathered, and the probabilities are those of the three
        # matrices gathered at once in the same layout.
        config = load_config(None, seed=3, out_dir=str(tmp_path))
        config = dataclasses.replace(config, synth=SynthConfig(n_flows=2000))
        prep = pipeline.prepare_data(config)
        scaled, alive = [], []

        def recording(features, stats, *, out=None):
            alive.append(sum(ref() is not None for ref in scaled))
            scaled.append(weakref.ref(features))
            return apply_normalization(features, stats, out=out)

        monkeypatch.setattr(pipeline, "apply_normalization", recording)
        result = pipeline.run_detector(config, prep)
        assert alive == [0, 0, 0]

        split, feats = prep.split, prep.dataset.features
        keep = np.arange(feats.shape[1])
        X_tr, X_va, X_te = (
            feats.T[np.ix_(keep, rows)].T for rows in (split.train_idx, split.val_idx, split.test_idx)
        )
        stats = fit_normalization(X_tr)
        for X in (X_tr, X_va, X_te):
            apply_normalization(X, stats, out=X)
        model = train_lr(X_tr, prep.y[split.train_idx], config.detector)
        model = platt_calibrate(model, X_va, prep.y[split.val_idx])
        assert np.array_equal(result.p_val, model.predict_proba(X_va))
        assert np.array_equal(result.p_test, model.predict_proba(X_te))
