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

from .calibration import check_p, class_metrics
from .errors import ParseError, ValidationError
from .tables import read_keyed, write_artifact

logger = logging.getLogger(__name__)

_Z_CLIP = 35.0  # sigmoid saturates beyond this; avoids overflow in exp

#: An alert is a predicted attack when its probability p >= ATTACK_THRESHOLD.
ATTACK_THRESHOLD = 0.5


class DetectorMode(str, Enum):
    """Feature subset the detector trains on, or an external score source."""

    TRAIN_FULL = "train_full"
    TRAIN_FLAGS_ONLY = "train_flags_only"
    EXTERNAL_SCORES = "external_scores"


@dataclass(frozen=True)
class DetectorConfig:
    """The [detector] section of a run: the alert source and the solver settings."""

    mode: DetectorMode = DetectorMode.TRAIN_FULL
    scores_path: str | None = None
    l2_c: float = 1.0
    max_iters: int = 1000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.mode is DetectorMode.EXTERNAL_SCORES and not self.scores_path:
            raise ValidationError("mode=external_scores requires scores_path")
        if not self.l2_c > 0.0:
            raise ValidationError(f"l2_c must be positive, got {self.l2_c!r}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValidationError(f"tol must be finite and >= 0, got {self.tol!r}")


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -_Z_CLIP, _Z_CLIP)))


def sample_weights(y: np.ndarray) -> np.ndarray:
    """Balanced per-sample weights: each sample of a class weighs n/(2*n_class)."""
    y = np.asarray(y)
    n = y.shape[0]
    weights = np.empty(n, dtype=float)
    for cls in (0, 1):
        mask = y == cls
        count = int(mask.sum())
        if count == 0:
            raise ValidationError("balanced weighting needs both classes present")
        weights[mask] = n / (2.0 * count)
    return weights


def _distinct(y: np.ndarray) -> list[float]:
    """The distinct values of the float vector ``y``, ascending with one NaN
    last, as ``np.unique`` gives them (which would import ``numpy.ma``)."""
    nan = np.isnan(y)
    distinct = sorted(set(y[~nan].tolist()))
    return distinct + [math.nan] if nan.any() else distinct


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
    config: DetectorConfig = DetectorConfig(),
    feature_names: Sequence[str] | None = None,
) -> LinearModel:
    """Fit the detector on binary labels with a deterministic Newton solver;
    of ``config`` only the solver settings ``l2_c``, ``max_iters`` and ``tol``
    apply.

    Raises:
        ValidationError: if only one class is present in ``y``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"X/y shape mismatch: {X.shape} vs {y.shape}")
    classes = _distinct(y)
    found = ", ".join(f"{c:g}" for c in classes)
    if len(classes) < 2:
        raise ValidationError(f"training data contains a single class: {found}")
    if not set(classes) <= {0.0, 1.0}:
        raise ValidationError(f"labels must be binary 0/1, got {found}")
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise ValidationError("feature_names length does not match feature count")

    n, d = X.shape
    sw = sample_weights(y)
    lam = 1.0 / config.l2_c
    Xa = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(d + 1)
    reg_diag = np.full(d + 1, lam / n)
    reg_diag[-1] = 0.0  # bias is not regularized

    def objective(t: np.ndarray) -> tuple[float, np.ndarray]:
        loss, gw, gb = logistic_loss_gradient(X, y, t[:-1], t[-1], sw, lam)
        return loss, np.append(gw, gb)

    loss, grad = objective(theta)
    iterations = 0  # a NaN gradient counts as not converged, hence "not <"
    while iterations < config.max_iters and not float(np.max(np.abs(grad))) < config.tol:
        iterations += 1
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
    if not float(np.max(np.abs(grad))) < config.tol:
        logger.warning("detector solver stopped after %d iterations without reaching tol %g: "
                       "max |grad| = %.3g", iterations, config.tol, np.max(np.abs(grad)))
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
    if len(_distinct(y_val)) < 2:
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


FLAGS_ONLY_MINIMUM = 5  # features the flags-only subset must have


def flags_only_subset(feature_names: Sequence[str]) -> list[int]:
    """Indices of features whose name contains "flag" (case-insensitive)."""
    indices = [i for i, name in enumerate(feature_names) if "flag" in name.lower()]
    if len(indices) < FLAGS_ONLY_MINIMUM:
        raise ValidationError(
            f"flags-only subset needs at least {FLAGS_ONLY_MINIMUM} features, found {len(indices)}"
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


def load_external_scores(path: str | Path) -> dict[str, float]:
    """Read an ``id,p`` score file into a map; malformed rows name their line."""
    scores = read_keyed(path, SCORES_HEADER, "score", _score_row)
    if not scores:
        raise ParseError(f"{path}: no scores")
    return scores


def _score_row(fields: list[str]) -> tuple[str, float]:
    alert_id, p_text = fields
    p = float(p_text)
    check_p(p)
    return alert_id, p


def lookup_scores(ids: Sequence[str], scores: Mapping[str, float], split: str) -> list[float]:
    """The score of each of one split's ids.

    Raises:
        ValidationError: if an id has no score; it names the split, how many
            ids miss one, and the first of them.
    """
    missing = [i for i in ids if i not in scores]
    if missing:
        raise ValidationError(
            f"external scores miss {len(missing)} of {len(ids)} {split} ids (first: {missing[0]!r})"
        )
    return [scores[i] for i in ids]


# --- persistence -----------------------------------------------------------


MODEL_HEADER = ["term", "value"]
_PLATT_TERMS = ("platt_a", "platt_b")


def save_model(path: str | Path, model: LinearModel, header_comment: str | None = None) -> None:
    """Write the model as flat ``term,value`` rows (round-trips exactly)."""
    names = model.feature_names or [f"feature_{i}" for i in range(len(model.weights))]
    terms = [*zip((f"w:{name}" for name in names), model.weights), ("bias", model.bias),
             *zip(_PLATT_TERMS, model.calibrator or ())]
    with write_artifact(path, header_comment) as fh:
        csv.writer(fh).writerows([MODEL_HEADER, *((term, repr(float(v))) for term, v in terms)])


def load_model(path: str | Path) -> LinearModel:
    """Read a model written by :func:`save_model`: one row per term, with the
    bias, at least one weight, and both calibrator terms or neither."""
    terms = read_keyed(path, MODEL_HEADER, "model term", _model_row)
    weights = {term[2:]: value for term, value in terms.items() if term.startswith("w:")}
    if "bias" not in terms or not weights:
        raise ParseError(f"{path}: model file missing weights or bias")
    platt = [term for term in _PLATT_TERMS if term in terms]
    if len(platt) == 1:
        raise ParseError(f"{path}: calibrator terms incomplete: {platt}")
    return LinearModel(
        weights=np.array(list(weights.values()), dtype=float),
        bias=terms["bias"],
        calibrator=tuple(map(terms.get, platt)) or None,
        feature_names=tuple(weights),
    )


def _model_row(fields: list[str]) -> tuple[str, float]:
    term, value = fields
    if not (term.startswith("w:") or term == "bias" or term in _PLATT_TERMS):
        raise ValueError(f"unknown term {term!r}")
    return term, float(value)
