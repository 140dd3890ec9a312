"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The traced run imports the package, replaces each public function listed in
``SPANNED`` and ``COUNTED`` under its name in every ``fuzztriage`` module
that binds it, and then calls ``fuzztriage.cli.main`` in-process, so it runs
exactly the code path of the untraced CLI command. Nothing under ``src/`` is
changed.

Each call to a ``SPANNED`` function records a span: name, start, end, parent
span, run id, the process's peak RSS at both ends, and counts taken from the
call's arguments and result when the span closes. A ``COUNTED`` function
only increments a call counter on the innermost open span. Spans stay in
memory and are written out as JSON when the run ends.

The tracer times its own work: the bookkeeping of every span, and the cost
of one counted call (measured on a no-op after the command) times the number
of counted calls. ``trace.overhead_pct`` is that time against the rest of
the command. A comparison of traced with untraced commands cannot show
it: on a shared machine two commands of the same work differ by 10-25%, far
more than the few percent the tracer adds.

Run as a script, it performs one traced command:

    python3 perfbench/tracer.py TRACE_JSON -- evaluate --config run.ini --out DIR
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

# module -> public functions that get a span.
SPANNED = {
    "config": ("load_config",),
    "pipeline": (
        "prepare_data",
        "run_detector",
        "calibrate_heights",
        "build_alerts",
        "rank_all",
        "evaluate_all",
        "write_splits",
        "write_calibration",
        "write_queues",
        "write_eval",
    ),
    "ingestion": ("synth_generate", "load_csv", "load_class_map_override", "map_attack_types", "split"),
    "detector": ("train_lr", "platt_calibrate"),
    "alerts": ("assemble",),
    "ranking": ("rank",),
    "evaluation": (
        "ndcg_of_queue",
        "predicted_queue",
        "band_eval",
        "paired_bootstrap",
        "scenario_eval",
        "sensitivity_sweep",
    ),
}
# module -> functions called too often for a span each; only calls are counted.
COUNTED = {
    "alerts": ("fnv1a64",),
    "sgfn": ("ranking_index",),
    "detector": ("logistic_loss_gradient",),
}

ROOT = "cli.main"
# Layer of each pipeline stage: orchestration and artifact writers are
# charged to the layer whose data they produce.
STAGE_LAYER = {
    "pipeline.prepare_data": "ingestion",
    "pipeline.write_splits": "ingestion",
    "pipeline.run_detector": "detector",
    "pipeline.calibrate_heights": "calibration",
    "pipeline.write_calibration": "calibration",
    "pipeline.build_alerts": "alerts",
    "pipeline.rank_all": "ranking",
    "pipeline.write_queues": "ranking",
    "pipeline.evaluate_all": "evaluation",
    "pipeline.write_eval": "evaluation",
    ROOT: "pipeline",
}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _written_counts(args, result) -> dict[str, float]:
    paths = list(result) if isinstance(result, (list, tuple)) else [result]
    return {"files": len(paths), "bytes": sum(os.path.getsize(p) for p in paths)}


# span name -> counts taken from (args, result) when the span closes.
SPAN_COUNTS = {
    "ingestion.load_csv": lambda a, r: {
        "rows_read": r[1].rows_kept + r[1].rows_dropped,
        "rows_dropped": r[1].rows_dropped,
    },
    "detector.train_lr": lambda a, r: {"train_rows": len(a[0])},
    "pipeline.calibrate_heights": lambda a, r: {"classes": len(r)},
    "pipeline.build_alerts": lambda a, r: {"distinct_alerts": len({x.alert_id for x in r[0]})},
    "alerts.assemble": lambda a, r: {"alerts": len(r)},
    "ranking.rank": lambda a, r: {"entries": len(r)},
    "evaluation.predicted_queue": lambda a, r: {"entries": len(r)},
    "evaluation.sensitivity_sweep": lambda a, r: {"points": len(r.points)},
    "pipeline.write_splits": _written_counts,
    "pipeline.write_calibration": _written_counts,
    "pipeline.write_queues": _written_counts,
    "pipeline.write_eval": _written_counts,
}


class Tracer:
    """Records spans in memory for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.own_s = 0.0  # bookkeeping time of spanned wrappers

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run_id": self.run_id,
            "rss_start": _peak_rss_mib(),
            "rss_end": None,
            "counts": {},
            "end": None,
        }
        span["start"] = time.perf_counter()
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_end"] = _peak_rss_mib()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, key: str) -> None:
        counts = self._open[-1]["counts"]
        counts[key] = counts.get(key, 0) + 1

    def spanned(self, fn, name: str):
        hook = SPAN_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                span["counts"].update(hook(args, result))
            self.own_s += (span["start"] - enter) + (time.perf_counter() - span["end"])
            return result

        return wrapper

    def counted(self, fn, name: str):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every listed function under its name in every fuzztriage module
    that binds it; a name the program no longer defines is skipped."""
    import fuzztriage.cli  # noqa: F401  (imports every module of the package)

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fuzztriage"]
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module_name, functions in table.items():
            home = sys.modules[f"fuzztriage.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = make(original, f"{module_name}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def counted_call_seconds(calls: int = 20_000, repeats: int = 7) -> float:
    """What a counted wrapper adds to one call: the median over ``repeats``
    of the time of ``calls`` wrapped no-op calls minus as many bare ones."""
    probe = Tracer("probe")

    def noop():
        return None

    wrapped = probe.counted(noop, "probe.noop")
    extra = []
    with probe.span("probe"):
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            extra.append(time.perf_counter() - start - bare)
    return max(0.0, sorted(extra)[repeats // 2] / calls)


def traced_command(cli_args: list[str], run_id: str) -> dict:
    """Run one CLI command in-process under the tracer."""
    tracer = Tracer(run_id)
    install(tracer)
    from fuzztriage import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), tracer.span(ROOT):
        code = cli.main(cli_args)
    return {
        "run_id": run_id,
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "peak_rss_mb": _peak_rss_mib(),
        "spans": tracer.spans,
        "span_bookkeeping_s": tracer.own_s,
        "counted_call_s": counted_call_seconds(),
    }


# --- per-layer metrics -----------------------------------------------------

CHILD_WORK = ("alerts.assemble", "ranking.rank")


class _Spans:
    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def seconds(self, *names: str) -> float:
        return sum(self.duration(s) for s in self.named(*names))

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.named(name))

    def calls(self, counted: str) -> float:
        return sum(s["counts"].get(f"{counted}.calls", 0) for s in self.spans)

    def layer(self, span: dict) -> str:
        return STAGE_LAYER.get(span["name"], span["name"].split(".")[0])

    def ancestors(self, span: dict):
        while span["parent"] is not None:
            span = self.by_id[span["parent"]]
            yield span

    def rss_growth(self, layer: str) -> float:
        """MiB the peak RSS rose while an outermost span of ``layer`` was open."""
        return sum(
            s["rss_end"] - s["rss_start"]
            for s in self.spans
            if self.layer(s) == layer and all(self.layer(a) != layer for a in self.ancestors(s))
        )

    def self_seconds(self, name: str, exclude: tuple[str, ...] = CHILD_WORK) -> float:
        """Time of ``name`` spans minus their outermost descendant spans in ``exclude``."""
        total = 0.0
        for span in self.named(name):
            total += self.duration(span)
            stack = list(self.children.get(span["id"], []))
            while stack:
                child = stack.pop()
                if child["name"] in exclude:
                    total -= self.duration(child)
                else:
                    stack.extend(self.children.get(child["id"], []))
        return total


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values from one traced run's spans; ``run.py`` adds
    ``repo.src_lines``."""
    t = _Spans(trace["spans"])
    (root,) = t.named(ROOT)
    command_s = t.duration(root)
    stage_s = sum(t.duration(s) for s in t.children.get(root["id"], []))
    evaluate_ids = {s["id"] for s in t.named("pipeline.evaluate_all")}
    metrics_s = sum(
        t.duration(s)
        for s in t.named("evaluation.ndcg_of_queue", "evaluation.predicted_queue")
        if s["parent"] in evaluate_ids
    )
    load_csv_s = t.seconds("ingestion.load_csv")
    rows_read = t.count("ingestion.load_csv", "rows_read")
    cf_hashes = t.calls("alerts.fnv1a64")
    distinct = t.count("pipeline.build_alerts", "distinct_alerts")
    counted_calls = sum(t.calls(f"{m}.{f}") for m, names in COUNTED.items() for f in names)
    tracer_s = trace["span_bookkeeping_s"] + counted_calls * trace["counted_call_s"]
    writers = ("pipeline.write_splits", "pipeline.write_calibration", "pipeline.write_queues", "pipeline.write_eval")
    values = {
        "ingestion.load_csv_s": load_csv_s,
        "ingestion.rows_read": rows_read,
        "ingestion.rows_dropped": t.count("ingestion.load_csv", "rows_dropped"),
        "ingestion.rows_per_s": rows_read / load_csv_s if load_csv_s else 0.0,
        "ingestion.synth_s": t.seconds("ingestion.synth_generate"),
        "ingestion.map_split_s": t.seconds(
            "ingestion.load_class_map_override", "ingestion.map_attack_types", "ingestion.split"
        ),
        "ingestion.write_splits_s": t.seconds("pipeline.write_splits"),
        "ingestion.bytes_written": t.count("pipeline.write_splits", "bytes"),
        "ingestion.rss_mb": t.rss_growth("ingestion"),
        "detector.run_s": t.seconds("pipeline.run_detector"),
        "detector.train_s": t.seconds("detector.train_lr"),
        "detector.platt_s": t.seconds("detector.platt_calibrate"),
        "detector.train_rows": t.count("detector.train_lr", "train_rows"),
        "detector.objective_evals": t.calls("detector.logistic_loss_gradient"),
        "calibration.heights_s": t.seconds("pipeline.calibrate_heights"),
        "calibration.classes": t.count("pipeline.calibrate_heights", "classes"),
        "alerts.build_s": t.seconds("pipeline.build_alerts"),
        "alerts.assemble_s": t.seconds("alerts.assemble"),
        "alerts.assemble_calls": len(t.named("alerts.assemble")),
        "alerts.alerts_assembled": t.count("alerts.assemble", "alerts"),
        "alerts.cf_hashes": cf_hashes,
        "alerts.distinct_alerts": distinct,
        "alerts.cf_hash_useful_ratio": distinct / cf_hashes if cf_hashes else 0.0,
        "alerts.rss_mb": t.rss_growth("alerts"),
        "ranking.rank_all_s": t.seconds("pipeline.rank_all"),
        "ranking.rank_s": t.seconds("ranking.rank"),
        "ranking.rank_calls": len(t.named("ranking.rank")),
        "ranking.entries_built": t.count("ranking.rank", "entries"),
        "ranking.index_calls": t.calls("sgfn.ranking_index"),
        "ranking.write_queues_s": t.seconds("pipeline.write_queues"),
        "ranking.bytes_written": t.count("pipeline.write_queues", "bytes"),
        "ranking.rss_mb": t.rss_growth("ranking"),
        "evaluation.evaluate_all_s": t.seconds("pipeline.evaluate_all"),
        "evaluation.metrics_s": metrics_s,
        "evaluation.bands_s": t.seconds("evaluation.band_eval"),
        "evaluation.bootstrap_s": t.seconds("evaluation.paired_bootstrap"),
        "evaluation.scenarios_s": t.seconds("evaluation.scenario_eval"),
        "evaluation.scenarios_self_s": t.self_seconds("evaluation.scenario_eval"),
        "evaluation.sweep_s": t.seconds("evaluation.sensitivity_sweep"),
        "evaluation.sweep_self_s": t.self_seconds("evaluation.sensitivity_sweep"),
        "evaluation.sweep_points": t.count("evaluation.sensitivity_sweep", "points"),
        "evaluation.pred_entries": t.count("evaluation.predicted_queue", "entries"),
        "evaluation.write_eval_s": t.seconds("pipeline.write_eval"),
        "evaluation.rss_mb": t.rss_growth("evaluation"),
        "pipeline.command_s": command_s,
        "pipeline.stage_coverage": stage_s / command_s,
        "pipeline.files_written": sum(t.count(w, "files") for w in writers),
        "pipeline.bytes_written": sum(t.count(w, "bytes") for w in writers),
        "pipeline.peak_rss_mb": trace["peak_rss_mb"],
        "config.load_s": t.seconds("config.load_config"),
        "trace.overhead_pct": 100.0 * tracer_s / (command_s - tracer_s),
    }
    return values


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_json = Path(argv[0])
    trace = traced_command(argv[2:], run_id=f"{out_json.stem}-{os.getpid()}")
    out_json.write_text(json.dumps(trace), encoding="utf-8")
    return trace["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
