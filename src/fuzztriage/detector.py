"""Baseline intrusion detector: regularized logistic regression.

Training is a damped Newton iteration with Armijo backtracking on the
weighted, L2-regularized logistic loss. That solver is fully deterministic
(no shuffling, no stochastic steps), so two runs on the same inputs produce
bit-identical weights, which the reproducibility contract requires.

The objective, with per-sample weights ``sw`` and ``lam = 1 / C``::

    J(w, b) = (1/n) * sum_i sw_i * (softplus(z_i) - y_i * z_i)
            + lam / (2n) * ||w||^2,     z_i = x_i . w + b

Balanced class weighting uses ``n / (2 * n_class)`` so each class contributes
half the total weight regardless of imbalance.

Probability calibration is Platt scaling: a two-parameter sigmoid
``p = 1 / (1 + exp(a * s + b))`` fitted to validation decision scores by
Newton's method. Calibration is monotone in the score, so it never changes
the confidence ordering of alerts.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .calibration import class_metrics
from .errors import ConfigError, ParseError, TrainingError, ValidationError
from .tables import read_table, write_artifact

logger = logging.getLogger(__name__)

_Z_CLIP = 35.0  # sigmoid saturates beyond this; avoids overflow in exp


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the logistic-regression trainer."""

    l2_c: float = 1.0
    max_iters: int = 1000
    tol: float = 1e-8
    class_weighting: str = "balanced"  # "balanced" or "none"

    def __post_init__(self) -> None:
        if not self.l2_c > 0.0:
            raise ValidationError(f"l2_c must be positive, got {self.l2_c!r}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValidationError(f"tol must be finite and >= 0, got {self.tol!r}")
        if self.class_weighting not in ("balanced", "none"):
            raise ValidationError(f"unknown class_weighting {self.class_weighting!r}")


class DetectorMode(str, Enum):
    """Feature subset the detector trains on, or an external score source."""

    TRAIN_FULL = "train_full"
    TRAIN_FLAGS_ONLY = "train_flags_only"
    EXTERNAL_SCORES = "external_scores"


@dataclass(frozen=True)
class DetectorConfig:
    """The [detector] section of a run; solver defaults and rules are TrainConfig's."""

    mode: DetectorMode = DetectorMode.TRAIN_FULL
    scores_path: str | None = None
    l2_c: float = TrainConfig.l2_c
    max_iters: int = TrainConfig.max_iters
    tol: float = TrainConfig.tol

    def __post_init__(self) -> None:
        if self.mode is DetectorMode.EXTERNAL_SCORES and not self.scores_path:
            raise ConfigError("detector.mode=external_scores requires detector.scores_path")
        self.train_config()  # the trainer's own rules validate the solver settings

    def train_config(self) -> TrainConfig:
        return TrainConfig(l2_c=self.l2_c, max_iters=self.max_iters, tol=self.tol)


@dataclass(frozen=True)
class LinearModel:
    """Trained linear detector with an optional sigmoid calibrator (a, b)."""

    weights: np.ndarray
    bias: float
    calibrator: tuple[float, float] | None = None
    feature_names: tuple[str, ...] | None = None

    def decision(self, X: np.ndarray) -> np.ndarray:
        """Raw decision scores ``X @ w + b``."""
        X = np.asarray(X, dtype=float)
        return X @ self.weights + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Attack probability, calibrated when a calibrator is fitted."""
        s = self.decision(X)
        if self.calibrator is not None:
            a, b = self.calibrator
            return _sigmoid(-(a * s + b))
        return _sigmoid(s)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -_Z_CLIP, _Z_CLIP)))


def sample_weights(y: np.ndarray, mode: str = "balanced") -> np.ndarray:
    """Per-sample weights; balanced mode gives each class weight n/(2*n_class)."""
    y = np.asarray(y)
    if mode == "none":
        return np.ones(y.shape[0], dtype=float)
    if mode != "balanced":
        raise ValidationError(f"unknown class_weighting {mode!r}")
    n = y.shape[0]
    weights = np.empty(n, dtype=float)
    for cls in (0, 1):
        mask = y == cls
        count = int(mask.sum())
        if count == 0:
            raise TrainingError("balanced weighting needs both classes present")
        weights[mask] = n / (2.0 * count)
    return weights


def logistic_loss_gradient(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    bias: float,
    sample_weight: np.ndarray,
    lam: float,
) -> tuple[float, np.ndarray, float]:
    """Objective value and its gradient (over weights and bias).

    Exposed separately so the weighting scheme can be verified directly:
    duplicating every minority row must reproduce the balanced-weight
    gradient exactly.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    z = X @ weights + bias
    # softplus(z) - y*z, computed stably
    loss_terms = np.logaddexp(0.0, z) - y * z
    loss = float(sample_weight @ loss_terms) / n + lam * float(weights @ weights) / (2.0 * n)
    residual = sample_weight * (_sigmoid(z) - y)
    grad_w = (X.T @ residual) / n + (lam / n) * weights
    grad_b = float(residual.sum()) / n
    return loss, grad_w, grad_b


def train_lr(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_names: Sequence[str] | None = None,
) -> LinearModel:
    """Fit the detector on binary labels with a deterministic Newton solver.

    Raises:
        TrainingError: if only one class is present in ``y``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"X/y shape mismatch: {X.shape} vs {y.shape}")
    classes = np.unique(y)
    if classes.size < 2:
        found = ", ".join(f"{c:g}" for c in classes.tolist())
        raise TrainingError(f"training data contains a single class: {found}")
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValidationError(f"labels must be binary 0/1, got {classes!r}")
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise ValidationError("feature_names length does not match feature count")

    n, d = X.shape
    sw = sample_weights(y, config.class_weighting)
    lam = 1.0 / config.l2_c
    Xa = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(d + 1)
    reg_diag = np.full(d + 1, lam / n)
    reg_diag[-1] = 0.0  # bias is not regularized

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        loss, gw, gb = logistic_loss_gradient(X, y, t[:-1], t[-1], sw, lam)
        return loss, np.append(gw, gb)

    loss, grad = objective(theta)
    for _ in range(config.max_iters):
        if float(np.max(np.abs(grad))) < config.tol:
            break
        z = Xa @ theta
        curvature = sw * _sigmoid(z) * _sigmoid(-z)  # sw * p * (1 - p)
        hessian = (Xa.T * curvature) @ Xa / n + np.diag(reg_diag)
        try:
            step = np.linalg.solve(hessian + 1e-12 * np.eye(d + 1), grad)
        except np.linalg.LinAlgError:
            step = grad
        # Armijo backtracking keeps the damped Newton step a descent step.
        t = 1.0
        descent = float(grad @ step)
        for _ in range(60):
            candidate = theta - t * step
            new_loss, new_grad = objective(candidate)
            if new_loss <= loss - 1e-4 * t * descent:
                theta, loss, grad = candidate, new_loss, new_grad
                break
            t *= 0.5
        else:
            break  # no further progress possible at float precision
    return LinearModel(
        weights=theta[:-1].copy(),
        bias=float(theta[-1]),
        feature_names=tuple(feature_names) if feature_names is not None else None,
    )


def platt_calibrate(model: LinearModel, X_val: np.ndarray, y_val: np.ndarray) -> LinearModel:
    """Fit the (a, b) sigmoid calibrator on validation scores.

    Degenerate validation labels (a single class) make the fit ill-posed; the
    model is returned uncalibrated with a logged warning in that case.
    """
    y_val = np.asarray(y_val, dtype=float)
    if np.unique(y_val).size < 2:
        logger.warning("validation labels contain a single class; skipping calibration")
        return model
    s = model.decision(X_val)
    a, b = _fit_platt(s, y_val)
    return replace(model, calibrator=(float(a), float(b)))


def _fit_platt(scores: np.ndarray, y: np.ndarray, max_iters: int = 100) -> tuple[float, float]:
    # Newton on the two-parameter logistic likelihood, p = sigmoid(-(a*s + b)),
    # with the usual smoothed targets so separable scores cannot diverge.
    pos = float(y.sum())
    neg = float(y.shape[0] - pos)
    target = np.where(y == 1, (pos + 1.0) / (pos + 2.0), 1.0 / (neg + 2.0))
    design = np.column_stack([scores, np.ones_like(scores)])
    theta = np.array([0.0, float(np.log((neg + 1.0) / (pos + 1.0)))])

    def loss_at(t: np.ndarray) -> float:
        q = design @ t
        # cross-entropy of sigmoid(-q) against the smoothed targets
        return float(np.sum(target * np.logaddexp(0.0, q) + (1.0 - target) * np.logaddexp(0.0, -q)))

    loss = loss_at(theta)
    for _ in range(max_iters):
        q = design @ theta
        p = _sigmoid(-q)
        grad = design.T @ (target - p)
        curvature = np.maximum(p * (1.0 - p), 1e-12)
        hessian = (design.T * curvature) @ design + 1e-10 * np.eye(2)
        step = np.linalg.solve(hessian, grad)
        t = 1.0
        for _ in range(40):
            candidate = theta - t * step
            new_loss = loss_at(candidate)
            if new_loss <= loss:
                break
            t *= 0.5
        else:
            break
        if abs(candidate[0] - theta[0]) + abs(candidate[1] - theta[1]) < 1e-12:
            theta, loss = candidate, new_loss
            break
        theta, loss = candidate, new_loss
    return float(theta[0]), float(theta[1])


def flags_only_subset(feature_names: Sequence[str], minimum: int = 5) -> list[int]:
    """Indices of features whose name contains "flag" (case-insensitive)."""
    indices = [i for i, name in enumerate(feature_names) if "flag" in name.lower()]
    if len(indices) < minimum:
        raise ValidationError(
            f"flags-only subset needs at least {minimum} features, found {len(indices)}"
        )
    return indices


@dataclass(frozen=True)
class DetectorReport:
    """Binary detection quality on one labeled split."""

    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "DetectorReport":
        y_true = np.asarray(y_true).astype(int)
        y_pred = np.asarray(y_pred).astype(int)
        if y_true.shape != y_pred.shape:
            raise ValidationError("y_true and y_pred must have the same shape")
        tp = int(np.sum((y_true == 1) & (y_pred == 1)))
        fp = int(np.sum((y_true == 0) & (y_pred == 1)))
        fn = int(np.sum((y_true == 1) & (y_pred == 0)))
        tn = int(np.sum((y_true == 0) & (y_pred == 0)))
        total = tp + fp + fn + tn
        accuracy = (tp + tn) / total if total else 0.0
        m = class_metrics(tp, fp, fn)
        return cls(accuracy, m.precision, m.recall, m.f1)


# --- external scores -------------------------------------------------------

SCORES_HEADER = ["id", "p"]
P_MISSING_DEFAULT = 0.5


def load_external_scores(path: str | Path) -> dict[str, float]:
    """Read an ``id,p`` score file into a map; malformed rows name their line."""
    scores: dict[str, float] = {}
    for lineno, row in read_table(path, SCORES_HEADER)[1]:
        alert_id = row[0].strip()
        try:
            p = float(row[1])
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: p is not a number: {row[1]!r}") from exc
        if not (0.0 <= p <= 1.0):
            raise ParseError(f"{path}: row {lineno}: p={p!r} outside [0, 1]")
        if alert_id in scores:
            raise ParseError(f"{path}: duplicate id {alert_id!r} at row {lineno}")
        scores[alert_id] = p
    if not scores:
        raise ParseError(f"{path}: no scores")
    return scores


def scores_with_defaults(ids: Sequence[str], scores: Mapping[str, float]) -> list[float]:
    """Look up scores by id, defaulting missing ids to 0.5 with a warning."""
    missing = [i for i in ids if i not in scores]
    if missing:
        logger.warning(
            "%d alert ids missing from external scores; defaulting p to %s (first: %s)",
            len(missing), P_MISSING_DEFAULT, missing[0],
        )
    return [scores.get(i, P_MISSING_DEFAULT) for i in ids]


# --- persistence -----------------------------------------------------------


MODEL_HEADER = ["term", "value"]


def save_model(path: str | Path, model: LinearModel, header_comment: str | None = None) -> None:
    """Write the model as flat ``term,value`` rows (round-trips exactly)."""
    with write_artifact(path, header_comment) as fh:
        writer = csv.writer(fh)
        writer.writerow(MODEL_HEADER)
        names = model.feature_names or tuple(
            f"feature_{i}" for i in range(model.weights.shape[0])
        )
        for name, w in zip(names, model.weights):
            writer.writerow([f"w:{name}", repr(float(w))])
        writer.writerow(["bias", repr(model.bias)])
        if model.calibrator is not None:
            writer.writerow(["platt_a", repr(model.calibrator[0])])
            writer.writerow(["platt_b", repr(model.calibrator[1])])


def load_model(path: str | Path) -> LinearModel:
    names: list[str] = []
    weights: list[float] = []
    bias: float | None = None
    platt: dict[str, float] = {}
    for lineno, row in read_table(path, MODEL_HEADER)[1]:
        try:
            term, value = row[0], float(row[1])
        except ValueError as exc:
            raise ParseError(f"{path}: bad model row {lineno}: {row!r}") from exc
        if term.startswith("w:"):
            names.append(term[2:])
            weights.append(value)
        elif term == "bias":
            bias = value
        elif term in ("platt_a", "platt_b"):
            platt[term] = value
        else:
            raise ParseError(f"{path}: unknown model term {term!r} at row {lineno}")
    if bias is None or not weights:
        raise ParseError(f"{path}: model file missing weights or bias")
    calibrator = None
    if platt:
        if set(platt) != {"platt_a", "platt_b"}:
            raise ParseError(f"{path}: calibrator terms incomplete: {sorted(platt)}")
        calibrator = (platt["platt_a"], platt["platt_b"])
    return LinearModel(
        weights=np.array(weights, dtype=float),
        bias=bias,
        calibrator=calibrator,
        feature_names=tuple(names),
    )
