"""fuzztriage benchmark: one closed-loop client running the real CLI.

    python3 perfbench/run.py --workload evaluate_default --seed 1 --seconds 30 --trace 0

Run from anywhere; it works in the checkout that contains it and runs the
package from ``src/`` of that checkout, writing only under
``.perfbench_work/``. One client runs one ``fuzztriage`` command at a time,
in a fresh process, and starts the next only after the previous exits,
until ``--seconds`` have passed. Every command's artifacts go through the
output check in ``check.py``; a command that exits non-zero or fails the
check counts in ``failed``. Before the loop, one command at the fixed seed
and size of ``reference_check`` must reproduce the seed program's output
recorded in ``baseline.json``, whatever ``--seed`` is.

``--trace 0`` reports the end-to-end metrics of the untraced CLI commands.
``--trace 1`` instead runs traced in-process commands (see ``tracer.py``)
in the same loop and reports the per-layer metrics, as medians over them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, and ``error_rate``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import check
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# workload -> "<seed>/<n_flows>" -> group -> fingerprint of the seed
# program's artifacts (``check.group_fingerprints``).
RECORDED = json.loads(Path(__file__).with_name("baseline.json").read_text(encoding="utf-8"))["fingerprints"]
# Seed of the reference check; its size is each workload's ``check_flows``.
CHECK_SEED = 5
# Relative to ROOT, the working directory of every command, so paths that
# reach the config hash are the same in every checkout.
WORK = Path(".perfbench_work")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fuzztriage subcommand
    n_flows: int  # synthetic flows, or data rows of the generated CSV
    check_flows: int  # size of the reference check and the self-test
    ini: dict[str, dict[str, object]] = field(default_factory=dict)
    kappas: str | None = None
    csv_input: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main experiment: ranking and evaluation do most of
        # the work, one assembly pass over every alert.
        Workload("evaluate_default", "evaluate", 10_000, 3_000, kappas="0,0.5,1,2"),
        # The sensitivity sweep: 20 assemblies and 38 rankings of the same
        # alerts, where hashing each alert's context once would show.
        Workload("sweep", "evaluate", 6_000, 2_000, ini={"evaluation": {"sweep": "true"}}, kappas="1"),
        # Ingestion of a CIC-IDS2017-shaped CSV with bad rows; no alerts,
        # ranking or evaluation work.
        Workload("ingest_csv", "calibrate", 50_000, 3_000, csv_input=True),
    )
}

# A fixed job that does not touch the program: a fresh interpreter, numpy,
# Python objects, a sort and CSV-like text, like a small pipeline stage. The
# load on this kind of shared machine changes the speed of every process by
# up to 60% over minutes, so timings are divided by the time of this job
# measured around them and reported in seconds at REFERENCE_S, the job's
# time on a quiet core of the 2-core machine the baseline was taken on.
REFERENCE_CODE = """
import hashlib
import numpy as np
values = np.random.default_rng(12345).random(40_000)
rows = [(f"flow-{i:06d}", float(v) * 9.5) for i, v in enumerate(values)]
rows.sort(key=lambda r: (-r[1], r[0]))
order = np.lexsort((np.arange(values.size), -values))
text = "\\n".join(f"{i},{name},{score:.10g}" for i, (name, score) in enumerate(rows, 1))
print(hashlib.sha256(text.encode()).hexdigest()[:12], int(order[0]))
"""
REFERENCE_S = 0.25

SETUP_CODE = """
import sys
import fuzztriage, fuzztriage.cli
from fuzztriage.alerts import load_catalog
from fuzztriage.config import load_config
load_catalog(load_config(sys.argv[1]).dataset.catalog)
print(fuzztriage.__file__)
"""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    error: str | None = None
    digests: dict[str, str] | None = None
    trace: dict | None = None


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], log: Path) -> tuple[float, float, int, str]:
    """Run a child to completion; return wall seconds, its own peak RSS in
    MiB, exit code and standard output."""
    log.parent.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        stdout += f"\n[exit {code}] {tail}"
    return wall, usage.ru_maxrss / 1024.0, code, stdout


def prepare(workload: Workload, n_flows: int, seed: int, folder: Path) -> Path:
    """Write the inputs of one size; return the INI path (relative to ROOT)."""
    sections = {"synth": {"n_flows": n_flows}, **workload.ini}
    if workload.csv_input:
        csv_path = inputs.ensure_flow_csv(WORK, n_flows, seed)
        sections = {"dataset": {"source": "csv", "path": csv_path.as_posix()}, **workload.ini}
    return inputs.write_ini(folder / "run.ini", sections)


def cli_args(workload: Workload, ini: Path, out_dir: Path, seed: int) -> list[str]:
    args = [workload.command, "--config", str(ini), "--out", str(out_dir), "--seed", str(seed)]
    if workload.kappas:
        args += ["--kappa", workload.kappas]
    return args


def reference_probe() -> float:
    wall, _, code, stdout = spawn([sys.executable, "-c", REFERENCE_CODE], WORK / "reference.log")
    if code != 0:
        raise RuntimeError(f"reference probe failed: {stdout}")
    return wall


def setup_probe(ini: Path) -> float:
    """Fresh-process time to import the CLI, load the config and the catalog."""
    wall, _, code, stdout = spawn([sys.executable, "-c", SETUP_CODE, str(ini)], ini.parent / "setup.log")
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {stdout}")
    loaded = Path(stdout.strip().splitlines()[-1]).resolve()
    if SRC not in loaded.parents:
        raise RuntimeError(f"set-up probe imported fuzztriage from {loaded}, not {SRC}")
    return wall


@dataclass(frozen=True)
class Expected:
    """What every command of a run must reproduce."""

    recorded: dict[str, dict] | None  # fingerprints of the seed program's output
    digests: dict[str, str] | None = None  # digests of the run's first passing command

    def after(self, outcome: Outcome) -> Expected:
        """Once a command has passed, the rest of the run must reproduce it."""
        return self if self.digests or not outcome.digests else replace(self, digests=outcome.digests)


def checked(wall: float, rss: float, code: int, stdout: str, out_dir: Path,
            workload: Workload, expected: Expected) -> Outcome:
    """Apply the output check to one finished command."""
    if code != 0:
        return Outcome(wall, rss, error=stdout.strip()[-500:])
    try:
        digests = check.check_outputs(out_dir, stdout, expect_queues=workload.command != "calibrate")
        if expected.recorded is not None:
            check.compare_fingerprints(check.group_fingerprints(out_dir), expected.recorded)
    except (check.OutputError, OSError, ValueError) as exc:
        return Outcome(wall, rss, error=f"output check: {exc}")
    if expected.digests is not None and digests != expected.digests:
        return Outcome(wall, rss, error=f"artifact digests {digests} differ from {expected.digests}")
    return Outcome(wall, rss, digests=digests)


def run_command(workload: Workload, ini: Path, seed: int, expected: Expected) -> Outcome:
    folder = ini.parent
    out_dir = folder / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, "-m", "fuzztriage.cli", *cli_args(workload, ini, out_dir, seed)]
    wall, rss, code, stdout = spawn(argv, folder / "command.log")
    return checked(wall, rss, code, stdout, out_dir, workload, expected)


def run_traced(workload: Workload, ini: Path, seed: int, expected: Expected) -> Outcome:
    """One traced command, run in-process by ``tracer.py`` in a fresh process."""
    folder = ini.parent
    out_dir, trace_json = folder / "traced", folder / "trace.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_json.unlink(missing_ok=True)
    argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(trace_json), "--",
            *cli_args(workload, ini, out_dir, seed)]
    wall, rss, code, stdout = spawn(argv, folder / "traced.log")
    if code != 0 or not trace_json.exists():
        return Outcome(wall, rss, error=f"traced run: {stdout.strip()[-500:]}")
    trace = json.loads(trace_json.read_text(encoding="utf-8"))
    outcome = checked(wall, rss, 0, trace["stdout"], out_dir, workload, expected)
    outcome.trace = trace
    return outcome


def reference_check(workload: Workload) -> Outcome:
    """One untimed command at CHECK_SEED and the workload's ``check_flows``;
    its output must match the recorded seed program's."""
    folder = WORK / workload.name / "check"
    ini = prepare(workload, workload.check_flows, CHECK_SEED, folder)
    recorded = RECORDED.get(workload.name, {}).get(f"{CHECK_SEED}/{workload.check_flows}")
    if recorded is None:
        return Outcome(0.0, 0.0, error=f"no recorded output for {workload.name} at the check size")
    return run_command(workload, ini, CHECK_SEED, Expected(recorded))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (SRC / "fuzztriage").glob("*.py"))


def end_to_end(workload: Workload, ini: Path, seed: int, seconds: float,
               expected: Expected, outcomes: list[Outcome]) -> tuple[dict, dict]:
    """The closed loop of untraced CLI commands; returns the end-to-end
    metrics and the unscaled medians printed next to them."""
    setup_probe(ini)  # warms file caches and writes bytecode; not timed
    commands: list[Outcome] = []
    setup: list[float] = []
    reference = [reference_probe()]
    start = time.perf_counter()
    # A reference probe runs right before and right after every command and
    # every set-up probe, and each time is scaled by the two around it: the
    # machine's speed changes within seconds, so only adjacent probes track it.
    while not commands or time.perf_counter() - start < seconds:
        commands.append(run_command(workload, ini, seed, expected))
        expected = expected.after(commands[-1])
        reference.append(reference_probe())
        setup.append(setup_probe(ini))
        reference.append(reference_probe())
    outcomes.extend(commands)
    speed = [REFERENCE_S / statistics.mean(pair) for pair in zip(reference, reference[1:])]
    wall = statistics.median(o.wall_s * k for o, k in zip(commands, speed[0::2]))
    metrics = {
        "wall_s": wall,
        "flows_per_s": workload.n_flows / wall,
        "peak_rss_mb": statistics.median(o.rss_mb for o in commands),
        "setup_s": statistics.median(t * k for t, k in zip(setup, speed[1::2])),
    }
    raw = {
        "raw_wall_s": statistics.median(o.wall_s for o in commands),
        "raw_setup_s": statistics.median(setup),
        "reference_s": statistics.median(reference),
    }
    return metrics, raw


def per_layer(workload: Workload, ini: Path, seed: int, seconds: float,
              expected: Expected, outcomes: list[Outcome]) -> dict:
    """The closed loop of traced commands; returns the median of each layer
    metric over them."""
    commands: list[Outcome] = []
    start = time.perf_counter()
    while not commands or time.perf_counter() - start < seconds:
        commands.append(run_traced(workload, ini, seed, expected))
        expected = expected.after(commands[-1])
    outcomes.extend(commands)
    layers = [tracer.layer_metrics(o.trace) for o in commands if o.trace]
    if not layers:
        return {name: 0.0 for name in PER_LAYER}
    # median_low keeps counts whole when the number of commands is even.
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["repo.src_lines"] = src_lines()
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the reference check, then the closed loop."""
    outcomes = [reference_check(workload)]
    ini = prepare(workload, workload.n_flows, seed, WORK / workload.name)
    expected = Expected(RECORDED.get(workload.name, {}).get(f"{seed}/{workload.n_flows}"))
    raw: dict[str, float] = {}
    if trace:
        metrics, units = per_layer(workload, ini, seed, seconds, expected, outcomes), PER_LAYER
    else:
        (metrics, raw), units = end_to_end(workload, ini, seed, seconds, expected, outcomes), END_TO_END
    failed = [o for o in outcomes if o.error]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "errors": [o.error for o in failed],
        "digests": next((o.digests for o in outcomes[1:] if o.digests), {}),
        "raw": raw,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def report(workload: Workload, seed: int, result: dict) -> None:
    """Print every metric by name with its unit, then the JSON result line."""
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(f"workload {workload.name} seed={seed} n_flows={workload.n_flows} "
          f"commands={result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for name, value in result["raw"].items():
        print(f"  {name:32s} {value:.6g} s (unscaled)")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32s} {error_rate:.6g} ratio ({result['failed']}/{result['attempted']})")
    for group, digest in sorted(result["digests"].items()):
        print(f"  sha256 {group:12s} {digest}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzztriage" / "cli.py").is_file():
        print(f"error: no fuzztriage sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    report(workload, args.seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
