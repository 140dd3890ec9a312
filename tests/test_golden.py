"""Golden artifact digests: the sha256 of every file a run writes, its stamp
line included, pinned in ``golden_digests.json``.

Equal config hash must give byte-identical CSVs, so any change to a byte of
these runs is an output change. None of the runs trains a detector, so none
goes through BLAS and the bytes do not depend on the CPU.

A change that alters these outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed digest in ``CHANGES.md`` as an intended output change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fuzztriage import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden_digests.json"

EXTERNAL_INI = (
    "[synth]\nn_flows = 3000\n"
    "[detector]\nmode = external_scores\nscores_path = {dir}/scores.csv\n"
    "[evaluation]\nsweep = true\n"
)
# run name -> (command, INI text with "{dir}" for the run's directory, extra flags)
RUNS = {
    "external_scores_sweep": ("evaluate", EXTERNAL_INI, ["--kappa", "0,1"]),
    "external_scores_categorical": (
        "evaluate",
        EXTERNAL_INI + "[ranking]\ncf_mode = categorical\nuf_scale = 1.2\n",
        ["--kappa", "0,1"],
    ),
    "prepare_quoted_flows": (
        "prepare", f"[dataset]\nsource = csv\npath = {TESTS / 'quoted-flows.csv'}\n", [],
    ),
}


def scores_text(n_flows: int) -> str:
    """External scores for ``flow-i``: p = (37 i mod 101) / 100."""
    return "id,p\n" + "".join(f"flow-{i:05d},{37 * i % 101 / 100:g}\n" for i in range(n_flows))


def run_digests(name: str, directory: Path) -> dict[str, str]:
    """Run ``name`` in ``directory``; the sha256 of each file it wrote, by
    its path under the output directory."""
    command, ini_text, flags = RUNS[name]
    if "scores_path" in ini_text:
        (directory / "scores.csv").write_text(scores_text(3000), encoding="utf-8")
    ini = directory / "run.ini"
    ini.write_text(ini_text.replace("{dir}", str(directory)), encoding="utf-8")
    out = directory / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(ini), "--out", str(out), *flags])
    assert code == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", list(RUNS))
def test_artifacts_match_golden_digests(tmp_path, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_digests(name, tmp_path) == golden


def main() -> None:
    """Rewrite ``golden_digests.json`` from this checkout's outputs."""
    import tempfile

    digests = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as directory:
            digests[name] = run_digests(name, Path(directory))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
