"""Seeded inputs for the benchmark workloads.

The ``ingest_csv`` flow file is written here with numpy and the ``csv``
module, not with the package's own writer or synthesiser, so the input stays
the same when the program changes. Paths are relative to the checkout root
(the benchmark's working directory): the config hash covers input paths, and
a relative path keeps artifact stamps equal between checkouts.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

FEATURE_NAMES = (
    "Flow Duration",
    "Total Fwd Packets",
    "Total Backward Packets",
    "Total Length of Fwd Packets",
    "Total Length of Bwd Packets",
    "Fwd Packet Length Max",
    "Fwd Packet Length Mean",
    "Bwd Packet Length Max",
    "Bwd Packet Length Mean",
    "Flow Bytes/s",
    "Flow Packets/s",
    "Flow IAT Mean",
    "Flow IAT Std",
    "Fwd IAT Mean",
    "Bwd IAT Mean",
    "Packet Length Variance",
    "Average Packet Size",
    "Init_Win_bytes_forward",
    "FIN Flag Count",
    "SYN Flag Count",
    "PSH Flag Count",
    "ACK Flag Count",
)

# Raw CIC-IDS2017 labels with the dash and case variants the real corpus
# has, plus one label no class maps to, so that ``unknown_novel`` occurs.
ATTACK_LABELS = (
    "DoS Hulk",
    "DOS HULK",
    "DoS GoldenEye",
    "DoS slowloris",
    "DoS Slowhttptest",
    "DDoS",
    "PortScan",
    "portscan",
    "FTP-Patator",
    "SSH-Patator",
    "ssh patator",
    "Bot",
    "Web Attack – Brute Force",
    "Web Attack - XSS",
    "Web Attack – Sql Injection",
    "Infiltration",
    "Heartbleed",
    "Lateral-Movement",
)
BENIGN_LABELS = ("BENIGN", "Benign")
WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday")

ATTACK_SHARE = 0.25
# Share of rows given one Infinity, NaN or non-numeric cell, so the
# dropped-row path of the loader runs.
BAD_ROW_SHARE = 0.004
BAD_CELLS = ("Infinity", "NaN", "n/a")


def flow_rows(n_rows: int, seed: int):
    """Yield the header and ``n_rows`` data rows of a CIC-shaped flow file."""
    rng = np.random.default_rng(seed)
    d = len(FEATURE_NAMES)
    attack = rng.random(n_rows) < ATTACK_SHARE
    attack_label = rng.integers(0, len(ATTACK_LABELS), size=n_rows)
    benign_label = (rng.random(n_rows) < 0.1).astype(int)
    day = rng.integers(0, len(WEEKDAYS), size=n_rows)

    # Each raw label gets its own feature shift, so attacks are learnable
    # but not separable from benign traffic by a single feature.
    shifts = rng.normal(0.0, 1.2, size=(len(ATTACK_LABELS), d))
    z = rng.normal(0.0, 1.0, size=(n_rows, d))
    z[attack] += shifts[attack_label[attack]]
    scale = np.exp(rng.uniform(0.0, 9.0, size=d))
    values = np.round(np.abs(z) * scale, 3).tolist()

    bad = np.flatnonzero(rng.random(n_rows) < BAD_ROW_SHARE)
    bad_col = rng.integers(0, d, size=bad.size)
    bad_token = rng.integers(0, len(BAD_CELLS), size=bad.size)
    for row, col, token in zip(bad.tolist(), bad_col.tolist(), bad_token.tolist()):
        values[row][col] = BAD_CELLS[token]

    yield [*FEATURE_NAMES, "Label", "Day"]
    for i in range(n_rows):
        label = ATTACK_LABELS[attack_label[i]] if attack[i] else BENIGN_LABELS[benign_label[i]]
        yield [*values[i], label, WEEKDAYS[day[i]]]


def ensure_flow_csv(work: Path, n_rows: int, seed: int) -> Path:
    """Write the flow file for this size and seed once and return its path.

    Files of this size for other seeds are removed, so the work directory
    holds one input per size: the workload's and the reference check's.
    """
    folder = work / "inputs"
    path = folder / f"flows-{n_rows}-seed{seed}.csv"
    if path.exists():
        return path
    folder.mkdir(parents=True, exist_ok=True)
    for old in folder.glob(f"flows-{n_rows}-seed*.csv"):
        old.unlink()
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(flow_rows(n_rows, seed))
    os.replace(tmp, path)
    return path


def write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    """Write a run configuration in the INI form ``fuzztriage --config`` reads."""
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path
