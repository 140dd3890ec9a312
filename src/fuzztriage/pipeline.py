"""End-to-end orchestration: dataset to ranked queues to evaluation report.

Each stage is a pure function of the RunConfig, so any command can rebuild
its upstream stages deterministically; artifacts exist for the analyst, not
as hidden pipeline state. Every command is a prefix of one stage sequence,
run by :func:`run`, and every file it writes starts with one stamp carrying
the config hash and seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .alerts import AlertBatch, AttackClassProfile, assemble, load_catalog
from .calibration import CalibrationRow, build_height_table, per_class_counts, write_calibration_csv
from .config import DetectorMode, RunConfig, artifact_stamp, check_class_ufs
from .detector import (
    ATTACK_THRESHOLD,
    DetectorReport,
    flags_only_subset,
    load_external_scores,
    lookup_scores,
    platt_calibrate,
    train_lr,
)
from .errors import ConfigError, ValidationError
from .evaluation import (
    BandResult,
    BootstrapResult,
    ScenarioResult,
    ScenarioSpec,
    SweepReport,
    band_eval,
    ndcg_of_queue,
    paired_bootstrap,
    predicted_queue,
    relevance,
    scenario_eval,
    sensitivity_sweep,
)
from .ingestion import (
    FlowDataset,
    SplitResult,
    apply_normalization,
    binary_labels,
    fit_normalization,
    load_class_map_override,
    load_csv,
    map_attack_types,
    split as split_dataset,
    synth_generate,
    write_flow_csv,
)
from .ranking import (
    Method,
    RankedQueue,
    RiskProfile,
    rank,
    risk_averse_queue_name,
    write_queue_csvs,
)
from .tables import Coded, write_artifact

logger = logging.getLogger(__name__)


def flow_ids(rows: Sequence[int] | np.ndarray) -> tuple[str, ...]:
    """The ids of the flows at data-row indices ``rows``."""
    return tuple(f"flow-{i:05d}" for i in np.asarray(rows).tolist())


@dataclass(frozen=True)
class PreparedData:
    dataset: FlowDataset
    classes: Coded  # each flow's attack class
    rows: np.ndarray  # each flow's data-row index, which names it (flow_ids)
    split: SplitResult

    @cached_property
    def y(self) -> np.ndarray:
        """Each flow's binary label (1: attack), computed once, when a stage first reads it."""
        return binary_labels(self.classes)


def prepare_data(config: RunConfig) -> PreparedData:
    """Load or generate the dataset, map classes, and split."""
    if config.dataset.source == "synth":
        dataset = synth_generate(config.synth, config.seed)
        rows = np.arange(len(dataset))
    else:
        dataset, report = load_csv(
            config.dataset.path,
            label_column=config.dataset.label_column,
            day_column=config.dataset.day_column,
        )
        rows = report.rows
        if report.rows_dropped:
            logger.warning(
                "dropped %d rows with non-numeric or non-finite features", report.rows_dropped
            )
    override = (
        load_class_map_override(config.dataset.class_map) if config.dataset.class_map else None
    )
    classes = map_attack_types(dataset.labels, override)
    split = split_dataset(dataset, classes, config.split, config.seed)
    return PreparedData(dataset, classes, rows, split)


@dataclass(frozen=True)
class DetectorOutput:
    p_val: np.ndarray
    p_test: np.ndarray


def run_detector(config: RunConfig, prep: PreparedData) -> DetectorOutput:
    """Produce attack probabilities for the validation and test splits."""
    if prep.split.val_idx.size == 0:
        raise ValidationError("validation split is empty; cannot calibrate heights")
    tr, va, te = prep.split.train_idx, prep.split.val_idx, prep.split.test_idx
    mode = config.detector.mode

    if mode is DetectorMode.EXTERNAL_SCORES:
        scores = load_external_scores(config.detector.scores_path)
        p_val = np.asarray(lookup_scores(flow_ids(prep.rows[va]), scores, "validation"))
        p_test = np.asarray(lookup_scores(flow_ids(prep.rows[te]), scores, "test"))
    else:
        if tr.size == 0:
            raise ValidationError("training split is empty; cannot train the detector")
        names = prep.dataset.feature_names
        flags_only = mode is DetectorMode.TRAIN_FLAGS_ONLY
        keep = flags_only_subset(names) if flags_only else list(range(len(names)))
        # Each split's rows and kept columns in one gather, in Fortran order:
        # the layout the BLAS sums of train_lr (and so their bits) were fixed
        # with. Then scaled in place with the statistics of the raw train rows.
        feats = prep.dataset.features
        X_tr, X_va, X_te = (feats.T[np.ix_(keep, rows)].T for rows in (tr, va, te))
        stats = fit_normalization(X_tr)
        for X in (X_tr, X_va, X_te):
            apply_normalization(X, stats, out=X)

        model = train_lr(X_tr, prep.y[tr], config.detector, feature_names=[names[i] for i in keep])
        model = platt_calibrate(model, X_va, prep.y[va])
        p_val = model.predict_proba(X_va)
        p_test = model.predict_proba(X_te)
    return DetectorOutput(p_val, p_test)


def calibrate_heights(
    config: RunConfig, prep: PreparedData, detector_out: DetectorOutput
) -> dict[str, CalibrationRow]:
    """Per-class calibration table from validation-split predictions."""
    va = prep.split.val_idx
    yhat_val = (detector_out.p_val >= ATTACK_THRESHOLD).astype(int)
    counts = per_class_counts(prep.classes.take(va), prep.y[va], yhat_val)
    return build_height_table(counts, config.heights)


def build_alerts(
    config: RunConfig,
    prep: PreparedData,
    detector_out: DetectorOutput,
    table: Mapping[str, CalibrationRow],
) -> tuple[AlertBatch, dict[str, AttackClassProfile]]:
    """Turn the test split into an alert batch with fuzzy severities. The
    batch keeps its catalog; the pair ``(batch, catalog)`` is still returned
    because ``perfbench/tracer.py`` reads the batch as its first item."""
    te = prep.split.test_idx
    if te.size == 0:
        raise ValidationError("test split is empty; there are no alerts to rank")
    catalog = load_catalog(config.dataset.catalog)
    heights = {cls: row.h_class for cls, row in table.items()}
    records = assemble(
        flow_ids(prep.rows[te]), prep.classes.take(te), detector_out.p_test, catalog, heights,
        labels=Coded((0, 1), prep.y[te]),
        cf_mode=config.ranking.cf_mode, uf_scale=config.ranking.uf_scale,
    )
    return records, catalog


def rank_all(config: RunConfig, records: AlertBatch) -> dict[str, RankedQueue]:
    """All configured queues keyed by method name (risk-averse per kappa)."""
    queues: dict[str, RankedQueue] = {
        Method.SEVERITY_ONLY.value: rank(records, Method.SEVERITY_ONLY),
        Method.CONFIDENCE_ONLY.value: rank(records, Method.CONFIDENCE_ONLY),
        Method.WEIGHTED_SUM.value: rank(records, Method.WEIGHTED_SUM),
    }
    for kappa in config.ranking.kappas:
        profile = RiskProfile(kappa)
        queues[risk_averse_queue_name(kappa)] = rank(records, Method.RISK_AVERSE, profile)
    return queues


@dataclass(frozen=True)
class MetricRow:
    method: str
    queue: str  # full | pred
    cutoff: int
    ndcg: float


@dataclass(frozen=True)
class EvalTables:
    detector: DetectorReport
    predicted: bool  # whether any alert is a predicted attack
    metrics: tuple[MetricRow, ...]
    bands: dict[str, tuple[BandResult, ...]]
    bootstrap: dict[str, BootstrapResult]
    scenarios: tuple[ScenarioResult, ...]
    sweep: SweepReport | None


def evaluate_all(
    config: RunConfig,
    table: Mapping[str, CalibrationRow],
    records: AlertBatch,
    queues: Mapping[str, RankedQueue],
) -> EvalTables:
    """Score the queues of the alert batch ``records``. The detector report
    is the batch's own: its labels against its predicted attacks."""
    ev, first_kappa = config.evaluation, config.ranking.kappas[0]
    rel = relevance(records)
    attack = records.p >= ATTACK_THRESHOLD
    # Every queue ranks the one batch and no sweep parameter moves p, so each
    # predicted view, a sweep point's too, is empty exactly when no alert is
    # a predicted attack.
    predicted = bool(attack.any())
    preds = {name: predicted_queue(queue) for name, queue in queues.items()}

    metrics = tuple(
        MetricRow(name, kind, cutoff, ndcg_of_queue(view, rel, cutoff))
        for name, queue in queues.items()
        for cutoff in ev.cutoffs
        for kind, view in (("full", queue), ("pred", preds[name]))
        if predicted or kind == "full"
    )
    bands = {name: tuple(band_eval(q, rel, ev.band_objects())) for name, q in queues.items()}

    bootstrap: dict[str, BootstrapResult] = {}
    ra_name = risk_averse_queue_name(first_kappa)
    if predicted:
        bootstrap = paired_bootstrap(
            preds[ra_name],
            {name: view for name, view in preds.items() if name != ra_name},
            rel,
            k=ev.bootstrap_k,
            resamples=ev.bootstrap_resamples,
            seed=ev.bootstrap_seed,
        )
    else:
        logger.warning("no alert is a predicted attack; %s are skipped", _skipped(config, "the "))

    specs = tuple(ScenarioSpec(kind, ev.noise_sd, config.seed) for kind in ev.scenarios)
    scenarios = tuple(scenario_eval(records, specs, kappa=first_kappa))

    sweep = None
    if ev.sweep and predicted:
        sweep = sensitivity_sweep(
            records,
            {cls: row.metrics.f1 for cls, row in table.items()},
            defaults=config.heights,
            kappa=first_kappa,
        )
    labels = records.labels  # each held label is 0 or 1: relevance checked them
    detector = DetectorReport.from_predictions(np.array(labels.names)[labels.codes], attack)
    return EvalTables(detector, predicted, metrics, bands, bootstrap, scenarios, sweep)


def _skipped(config: RunConfig, article: str = "") -> str:
    """What a run with no predicted attack leaves out, each part after ``article``."""
    a = article
    if config.evaluation.sweep:
        return f"{a}pred metrics, {a}paired bootstrap and {a}sensitivity sweep"
    return f"{a}pred metrics and {a}paired bootstrap"


# --- artifact writers --------------------------------------------------------
# Each writer heads every file with ``stamp``, the run's artifact_stamp.

def write_splits(config: RunConfig, prep: PreparedData, stamp: str) -> list[Path]:
    split = prep.split
    written = [Path(config.out_dir, "splits", f"{name}.csv") for name in ("train", "validation", "test")]
    for path, idx in zip(written, (split.train_idx, split.val_idx, split.test_idx)):
        write_flow_csv(prep.dataset, idx, path, header_comment=stamp)
    return written


def write_calibration(config: RunConfig, table: Mapping[str, CalibrationRow], stamp: str) -> Path:
    path = Path(config.out_dir, "calibration", "heights.csv")
    write_calibration_csv(path, table, header_comment=stamp)
    return path


def write_queues(config: RunConfig, queues: Mapping[str, RankedQueue], stamp: str) -> list[Path]:
    files = {Path(config.out_dir, "queues", f"queue_{name}.csv"): q for name, q in queues.items()}
    write_queue_csvs(files, header_comment=stamp)
    return list(files)


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.10g}"


def write_eval(config: RunConfig, tables: EvalTables, stamp: str) -> list[Path]:
    def write_csv(name: str, header: str, rows: Iterable[Sequence[str]]) -> Path:
        path = Path(config.out_dir, "eval", name)
        with write_artifact(path, stamp) as fh:
            fh.write(f"{header}\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        return path

    d, sweep = tables.detector, tables.sweep
    baseline = risk_averse_queue_name(config.ranking.kappas[0])
    written = [
        write_csv(
            "detector.csv", "mode,accuracy,precision,recall,f1",
            [(config.detector.mode.value, *map(_fmt, (d.accuracy, d.precision, d.recall, d.f1)))],
        ),
        write_csv(
            "metrics.csv", "method,queue,cutoff,ndcg",
            ((r.method, r.queue, str(r.cutoff), _fmt(r.ndcg)) for r in tables.metrics),
        ),
        write_csv(
            "bands.csv", "method,band_lo,band_hi,count,ndcg",
            ((name, _fmt(r.band.lo), _fmt(r.band.hi), str(r.count), _fmt(r.ndcg))
             for name, results in tables.bands.items() for r in results),
        ),
        write_csv(
            "bootstrap.csv", "method,baseline,k,delta,ci_low,ci_high,p_value,resamples",
            ((name, baseline, str(r.k), *map(_fmt, (r.delta, r.ci_low, r.ci_high, r.p_value)),
              str(r.resamples)) for name, r in tables.bootstrap.items()),
        ),
        write_csv(
            "scenarios.csv", "scenario,method,k,ndcg_before,ndcg_after,change_pct",
            ((r.scenario.value, r.method.value, str(r.k),
              *map(_fmt, (r.ndcg_before, r.ndcg_after, r.change_pct))) for r in tables.scenarios),
        ),
    ]
    if sweep is not None:
        cutoff_cols = (f"ndcg_at{k}_pred" for k in sweep.cutoffs)
        rows = [("point", p.parameter, _fmt(p.value), *map(_fmt, p.ndcg_by_cutoff))
                for p in sweep.points]
        rows.extend(("parameter_spread", name, "", *map(_fmt, spreads))
                    for name, spreads in sweep.parameter_spread.items())
        rows.append(("overall_spread", "", "", *map(_fmt, sweep.spread_by_cutoff)))
        header = ",".join(("kind", "parameter", "value", *cutoff_cols))
        written.append(write_csv("sweep.csv", header, rows))
    written.append(write_summary(config, tables, stamp))
    return written


def write_summary(config: RunConfig, tables: EvalTables, stamp: str) -> Path:
    path = Path(config.out_dir, "eval", "summary.txt")
    d = tables.detector
    lines = [
        "",
        f"detector ({config.detector.mode.value}): accuracy={d.accuracy:.4f} "
        f"precision={d.precision:.4f} recall={d.recall:.4f} f1={d.f1:.4f}",
        "",
        "NDCG_rel by method (queue@cutoff):",
        *(f"  {m.method:28s} {m.queue}@{m.cutoff:<4d} {m.ndcg:.4f}" for m in tables.metrics),
    ]
    if not tables.predicted:
        lines += ["", f"no alert is a predicted attack: {_skipped(config)} skipped"]
    if tables.bootstrap:
        lines += ["", "paired bootstrap vs risk-averse (delta [95% CI], p):"]
        lines += (
            f"  {name:28s} {r.delta:+.4f} [{r.ci_low:+.4f}, {r.ci_high:+.4f}] p={r.p_value:.4g}"
            for name, r in tables.bootstrap.items()
        )
    if tables.scenarios:
        lines += ["", "miscalibration scenarios (NDCG before -> after):"]
        for row in tables.scenarios:
            pct = "n/a" if row.change_pct is None else f"{row.change_pct:+.2f}%"
            lines.append(
                f"  {row.scenario.value:16s} {row.method.value:18s} "
                f"{row.ndcg_before:.4f} -> {row.ndcg_after:.4f} ({pct})"
            )
    sweep = tables.sweep
    if sweep is not None:
        def at(values: Sequence[float]) -> str:
            return ", ".join(f"@{k}={v:.4f}" for k, v in zip(sweep.cutoffs, values))

        lines += ["", f"sensitivity sweep spread: {at(sweep.spread_by_cutoff)}"]
        lines += (f"  {name:12s} {at(spreads)}" for name, spreads in sweep.parameter_spread.items())
    with write_artifact(path, stamp) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# --- the run -----------------------------------------------------------------

#: command -> help text, in stage order: each command runs the stages of the
#: one before it, then its own; ``stress`` is evaluate with the flags-only detector.
COMMANDS = {
    "prepare": "load or generate the dataset and write splits",
    "calibrate": "train the detector and write the height table",
    "rank": "write one ranked queue CSV per method",
    "evaluate": "write the full evaluation report",
    "stress": "run evaluate with the flags-only detector",
}


@dataclass(frozen=True)
class RunOutput:
    """Everything a run produced, for callers and tests: the output of each
    stage its command ran (None for the stages after it), the files it wrote,
    and the stamp that heads each of them."""

    config: RunConfig
    stamp: str
    prep: PreparedData
    detector_out: DetectorOutput | None
    table: dict[str, CalibrationRow] | None
    records: AlertBatch | None
    queues: dict[str, RankedQueue] | None
    tables: EvalTables | None
    written: tuple[Path, ...]


def run(config: RunConfig, command: str) -> RunOutput:
    """Run the stages of ``command``, a key of :data:`COMMANDS` (else a
    ValueError), then write their artifacts, so a run whose stage fails
    writes nothing. The config is hashed once, into the stamp of every
    artifact, after the stages and before the first writer."""
    depth = list(COMMANDS).index(command)
    if command == "stress":
        flags_only = replace(config.detector, mode=DetectorMode.TRAIN_FLAGS_ONLY)
        config = replace(config, detector=flags_only)
    prep = prepare_data(config)
    if depth >= 2:  # the uf scale against the classes the alerts will hold
        test_classes = prep.classes.take(prep.split.test_idx)
        try:
            check_class_ufs(config, map(test_classes.names.__getitem__, test_classes.present()))
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc  # cli.main names the INI file
    detector_out = run_detector(config, prep) if depth >= 1 else None
    table = calibrate_heights(config, prep, detector_out) if depth >= 1 else None
    records = build_alerts(config, prep, detector_out, table)[0] if depth >= 2 else None
    queues = rank_all(config, records) if depth >= 2 else None
    tables = evaluate_all(config, table, records, queues) if depth >= 3 else None

    stamp = artifact_stamp(config)
    written = write_splits(config, prep, stamp)
    if depth >= 1:
        written.append(write_calibration(config, table, stamp))
    if depth >= 2:
        written.extend(write_queues(config, queues, stamp))
    if depth >= 3:
        written.extend(write_eval(config, tables, stamp))
    return RunOutput(
        config, stamp, prep, detector_out, table, records, queues, tables, tuple(written)
    )
