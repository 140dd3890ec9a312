"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Each workload runs in-process at its ``check_flows`` size and the reference
check's seed, whose output ``baseline.json`` records. Checks that

- every workload prints each metric named in BENCHMARK.json with its unit,
  with ``error_rate`` 0, both untraced and traced;
- the traced run reproduces the call counts the seed code fixes: 7 + 16
  rankings and one assembly on ``evaluate_default``, 4 + 16 + 18 rankings
  and 20 assemblies on ``sweep``, and no alerts, ranking or evaluation work
  on ``ingest_csv``; and its top-level stage spans cover at least 95% of the
  traced command;
- the output check rejects a queue with two rows swapped and a queue with
  one score changed, and a corrupted queue or a changed eval file gives a
  non-zero ``error_rate``;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import check
import run

SEED = run.CHECK_SEED
EXPECTED_COUNTS = {
    "evaluate_default": {"ranking.rank_calls": 7 + 16, "alerts.assemble_calls": 1},
    "sweep": {"ranking.rank_calls": 4 + 16 + 18, "alerts.assemble_calls": 20,
              "evaluation.sweep_points": 18},
}
IDLE_ON_INGEST = ("alerts.", "ranking.", "evaluation.")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return replace(workload, n_flows=workload.check_flows)


def check_printed(workload: str, trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.report(tiny(workload), SEED, run.measure(tiny(workload), SEED, seconds=1, trace=bool(trace)))
    lines = stdout.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    expect(list(result) == ["correct", "attempted", "failed", "metrics"]
           and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace} result is correct with no failures")
    declared = run.SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    expect([m["name"] for m in declared] == list(metrics)
           and all(metrics[m["name"]]["unit"] == m["unit"] for m in declared),
           f"{workload} trace={trace} reports every declared metric with its unit")
    printed = {line.split()[0]: line.split()[1:3] for line in lines[:-1] if line.startswith("  ")}
    expect(all(printed.get(m["name"], [None, None])[1] == m["unit"] for m in declared)
           and printed.get("error_rate") == ["0", "ratio"],
           f"{workload} trace={trace} prints each metric with its unit, and error_rate 0")
    return {name: m["value"] for name, m in metrics.items()}


def check_layers(workload: str, layers: dict) -> None:
    for name, value in EXPECTED_COUNTS.get(workload, {}).items():
        expect(layers.get(name) == value, f"{workload} {name} == {value} (got {layers.get(name)})")
    if workload == "ingest_csv":
        busy = [n for n in layers if n.startswith(IDLE_ON_INGEST) and layers[n] != 0]
        expect(not busy, f"ingest_csv does no alerts/ranking/evaluation work ({busy})")
        expect(layers["ingestion.rows_dropped"] > 0, "ingest_csv drops its bad rows")
    expect(layers["pipeline.stage_coverage"] >= 0.95,
           f"{workload} stage spans cover {layers['pipeline.stage_coverage']:.3f} >= 0.95 of the command")


def rewrite_queue(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines), encoding="utf-8")


def swap_rows(lines: list[str]) -> None:
    # Swap the first and last entries but keep the rank column in place.
    first, last = lines[2].split(",", 1), lines[-1].split(",", 1)
    lines[2], lines[-1] = f"{first[0]},{last[1]}", f"{last[0]},{first[1]}"


def change_score(lines: list[str]) -> None:
    # Raise the top score slightly: the queue stays sorted, the formula breaks.
    cells = lines[2].split(",")
    cells[3] = format(float(cells[3]) * (1 + 1e-6) + 1e-6, ".10g")
    lines[2] = ",".join(cells)


def change_ndcg(lines: list[str]) -> None:
    # Lower the first NDCG of bands.csv by 1e-4, as a wrong metric might.
    cells = lines[2].rstrip("\n").split(",")
    cells[-1] = format(float(cells[-1]) - 1e-4, ".10g")
    lines[2] = ",".join(cells) + "\n"


def check_corruption() -> None:
    source = run.WORK / "evaluate_default" / "out"
    stdout = (run.WORK / "evaluate_default" / "command.out").read_text(encoding="utf-8")
    expect(bool(check.check_outputs(source, stdout, expect_queues=True)), "check accepts a good run")
    for label, edit in (("two rows swapped", swap_rows), ("one score changed", change_score)):
        bad = run.WORK / "selftest" / "corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(source, bad)
        rewrite_queue(bad / "queues" / "queue_risk_averse_k1.csv", edit)
        try:
            check.check_outputs(bad, stdout, expect_queues=True)
            rejected = False
        except check.OutputError as exc:
            rejected = True
            print(f"     ({exc})")
        expect(rejected, f"check rejects a queue with {label}")

    # End to end: corrupt each command's output the same way before the
    # check sees it. A changed eval file passes every check within the run;
    # only the recorded output of the seed program rejects it.
    real_spawn = run.spawn
    for label, artifact, edit in (("a corrupted queue", "queues/queue_risk_averse_k1.csv", swap_rows),
                                  ("a changed eval file", "eval/bands.csv", change_ndcg)):

        def corrupting_spawn(argv, log, artifact=artifact, edit=edit):
            result = real_spawn(argv, log)
            path = log.parent / "out" / artifact
            if path.exists():
                rewrite_queue(path, edit)
            return result

        run.spawn = corrupting_spawn
        try:
            result = run.measure(tiny("evaluate_default"), SEED, seconds=0, trace=False)
        finally:
            run.spawn = real_spawn
        expect(result["failed"] == result["attempted"] >= 2,
               f"{label} counts as failed ({result['failed']}/{result['attempted']})")


def check_bare_directory() -> None:
    bare = run.ROOT / run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for rel in run.SPEC["paths"]:
        shutil.copytree(run.ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, str(bare / "perfbench" / "run.py"), "--workload", "evaluate_default",
            "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=bare, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program it exits {proc.returncode} and prints no result")


def main() -> int:
    os.chdir(run.ROOT)
    for workload in run.WORKLOADS:
        check_printed(workload, 0)
        check_layers(workload, check_printed(workload, 1))
    check_corruption()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
