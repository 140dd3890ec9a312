"""Same bytes under any string-hash seed: an equal config hash gives
identical files, whatever order Python's string hashing gives the sets and
dicts the pipeline builds. Each run goes through the real CLI in a fresh
process, once under ``PYTHONHASHSEED=0`` and once under ``12345``, and the
two output directories must hold the same files byte for byte.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# run name -> (command, INI text, extra flags)
RUNS = {
    "evaluate_sweep_categorical": (
        "evaluate",
        "[synth]\nn_flows = 3000\n[ranking]\ncf_mode = categorical\n[evaluation]\nsweep = true\n",
        ["--kappa", "0,1"],
    ),
    # The split files of a flow CSV whose labels need quoting and hold
    # non-ASCII text: load_csv reads its quoted rows with csv.reader.
    "prepare_quoted_flows": (
        "prepare", f"[dataset]\nsource = csv\npath = {TESTS / 'quoted-flows.csv'}\n", [],
    ),
    # Labels, days and classes are coded from dicts: labels that differ by
    # case, dash and whitespace, one of them unmapped, and dropped rows.
    # load_csv reads its rows with np.loadtxt.
    "calibrate_dropped_rows": (
        "calibrate", f"[dataset]\nsource = csv\npath = {TESTS / 'dropped-rows-flows.csv'}\n", [],
    ),
}


def run_cli(directory: Path, name: str, hashseed: str | None, ini_text: str | None = None) -> Path:
    """Run ``name`` in a fresh process under the string-hash seed
    ``hashseed`` (``None``: a random one); the output directory."""
    command, default_ini, flags = RUNS[name]
    directory.mkdir()
    ini = directory / "run.ini"
    ini.write_text(default_ini if ini_text is None else ini_text, encoding="utf-8")
    out = directory / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONHASHSEED", None)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    subprocess.run(
        [sys.executable, "-m", "fuzztriage.cli", command, "--config", str(ini),
         "--out", str(out), *flags],
        env=env, check=True, capture_output=True,
    )
    return out


def files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(RUNS))
def test_same_bytes_under_any_hash_seed(tmp_path, name):
    first, second = (run_cli(tmp_path / seed, name, seed) for seed in ("0", "12345"))
    assert files(first) and files(first) == files(second)


def test_copied_input_gives_the_same_files(tmp_path):
    # The config hash covers the bytes of the input, not its path: a copy
    # under another directory gives the same files, stamps included.
    copy = tmp_path / "elsewhere" / "moved-flows.csv"
    copy.parent.mkdir()
    shutil.copyfile(TESTS / "quoted-flows.csv", copy)
    moved = run_cli(tmp_path / "copy", "prepare_quoted_flows", None,
                    f"[dataset]\nsource = csv\npath = {copy}\n")
    original = run_cli(tmp_path / "original", "prepare_quoted_flows", "0")
    assert files(original) == files(moved)
