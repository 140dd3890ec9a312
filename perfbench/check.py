"""Output check run after every benchmark command.

A command passes when

- every artifact starts with the ``# config_hash=<h> seed=<n>`` stamp the
  CLI printed on its last line,
- every queue CSV is a permutation of the same alert ids, ranked 1..n, with
  scores that never increase down the queue and ties in ascending id order,
- every ``risk_averse_k<kappa>`` score equals ``c + kappa*sigma*log10(h)``.

It also returns, per artifact group (``splits``, ``calibration``,
``queues``, ``eval``) and taken without the stamp line, a sha256 digest, so
the commands of one run can be required to agree byte for byte, and a
fingerprint, so a command can be compared with the seed program's output
recorded in ``baseline.json``. The fingerprint hashes every non-numeric
token exactly and keeps the count and two sums over the numbers, compared to
``FINGERPRINT_RTOL``: a change of the program's results shows, a last-bit
difference of a BLAS kernel on another CPU does not.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

GROUPS = ("splits", "calibration", "queues", "eval")
STAMP_RE = re.compile(r"^config_hash=([0-9a-f]{12}) seed=(-?\d+)$")
QUEUE_HEADER = ["rank", "id", "method", "score", "c", "sigma", "h", "p", "attack_class", "label"]
RISK_AVERSE_PREFIX = "queue_risk_averse_k"
SCORE_RTOL = 1e-9
FINGERPRINT_RTOL = 1e-11
TOKEN_SPLIT = re.compile(r"[\s,=@:()\[\]{}\"']+")


class OutputError(Exception):
    """The command's artifacts are missing, inconsistent or wrong."""


def parse_stamp(stdout: str) -> str:
    """The ``config_hash=... seed=...`` line the CLI prints last."""
    lines = stdout.strip().splitlines()
    if not lines or not STAMP_RE.match(lines[-1]):
        raise OutputError(f"no config_hash line in CLI output: {lines[-1:]!r}")
    return lines[-1]


def group_digests(out_dir: Path, stamp: str) -> dict[str, str]:
    """sha256 per artifact group over file names and stamp-less contents."""
    digests = {}
    for group in GROUPS:
        folder = out_dir / group
        if not folder.is_dir():
            continue
        h = hashlib.sha256()
        for path in sorted(folder.iterdir()):
            data = path.read_bytes()
            first, _, rest = data.partition(b"\n")
            if first.decode("utf-8", "replace") != f"# {stamp}":
                raise OutputError(f"{group}/{path.name}: stamp {first[:60]!r} != {stamp!r}")
            h.update(path.name.encode() + b"\0" + rest + b"\0")
        digests[group] = h.hexdigest()
    return digests


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def group_fingerprints(out_dir: Path) -> dict[str, dict]:
    """Per group: sha256 of the text with every number replaced by ``#``,
    the count of numbers, and two sums of ``sign(x) * log1p(|x|)``, one of
    them with position weights so that a reordering shows. The logarithm
    keeps the ranks and ids of a queue from swamping its scores. ``scale``
    (the weighted sum of magnitudes) sets the tolerance of both sums."""
    fingerprints = {}
    for group in GROUPS:
        folder = out_dir / group
        if not folder.is_dir():
            continue
        text, numbers = hashlib.sha256(), []
        for path in sorted(folder.iterdir()):
            body = path.read_text(encoding="utf-8").partition("\n")[2]
            skeleton = []
            for token in TOKEN_SPLIT.split(body):
                value = _number(token)
                skeleton.append(token if value is None else "#")
                if value is not None:
                    numbers.append(math.copysign(math.log1p(abs(value)), value))
            text.update(path.name.encode() + b"\0" + " ".join(skeleton).encode() + b"\0")
        weights = [1.0 + (i * 0.6180339887498949) % 1.0 for i in range(len(numbers))]
        fingerprints[group] = {
            "text": text.hexdigest(),
            "numbers": len(numbers),
            "sum": math.fsum(numbers),
            "weighted_sum": math.fsum(x * w for x, w in zip(numbers, weights)),
            "scale": math.fsum(abs(x) * w for x, w in zip(numbers, weights)),
        }
    return fingerprints


def compare_fingerprints(got: dict[str, dict], recorded: dict[str, dict]) -> None:
    """Raise OutputError unless ``got`` matches the recorded fingerprints."""
    if set(got) != set(recorded):
        raise OutputError(f"artifact groups {sorted(got)} != recorded {sorted(recorded)}")
    for group, ref in recorded.items():
        fp = got[group]
        if fp["text"] != ref["text"] or fp["numbers"] != ref["numbers"]:
            raise OutputError(f"{group}: text or number count differs from the recorded output")
        tolerance = FINGERPRINT_RTOL * ref["scale"]
        for key in ("sum", "weighted_sum"):
            if abs(fp[key] - ref[key]) > tolerance:
                raise OutputError(f"{group}: {key} {fp[key]!r} != recorded {ref[key]!r}")


def _queue_kappa(path: Path) -> float | None:
    if not path.stem.startswith(RISK_AVERSE_PREFIX):
        return None
    return float(path.stem[len(RISK_AVERSE_PREFIX):])


def check_queue(path: Path) -> list[str]:
    """Check one queue CSV and return its ids in queue order."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows or rows[0] != QUEUE_HEADER:
        raise OutputError(f"{path.name}: bad header {rows[:1]!r}")
    kappa = _queue_kappa(path)
    ids: list[str] = []
    prev_score = prev_inputs = prev_id = None
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(QUEUE_HEADER):
            raise OutputError(f"{path.name}: row {n} has {len(row)} fields")
        rank, alert_id = int(row[0]), row[1]
        score, c, sigma, h, p = (float(v) for v in row[3:8])
        if rank != n:
            raise OutputError(f"{path.name}: row {n} has rank {rank}")
        if kappa is not None:
            penalty = kappa * sigma * math.log10(h)
            scale = max(abs(c), abs(penalty), kappa * sigma, abs(score))
            if abs(score - (c + penalty)) > SCORE_RTOL * scale:
                raise OutputError(
                    f"{path.name}: row {n} score {score!r} != c + k*sigma*log10(h) = {c + penalty!r}"
                )
        if prev_score is not None:
            if score > prev_score:
                raise OutputError(f"{path.name}: score rises at row {n}")
            # Scores are printed to 10 significant digits, so two printed
            # values can be equal while the computed ones differ. A tie is
            # certain only for a zero score or when every printed input of
            # the two rows is equal.
            inputs = row[3:8]
            tied = score == prev_score and (score == 0.0 or inputs == prev_inputs)
            if tied and alert_id < prev_id:
                raise OutputError(f"{path.name}: tie at row {n} not in ascending id order")
        prev_score, prev_inputs, prev_id = score, row[3:8], alert_id
        ids.append(alert_id)
    return ids


def _data_rows(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def check_queues(out_dir: Path) -> int:
    """Check every queue CSV; all must rank the same ids, one per test flow.
    Returns the queue count."""
    paths = sorted((out_dir / "queues").glob("queue_*.csv"))
    n_test = _data_rows(out_dir / "splits" / "test.csv")
    universe: set[str] | None = None
    for path in paths:
        ids = check_queue(path)
        id_set = set(ids)
        if len(id_set) != len(ids) or len(ids) != n_test:
            raise OutputError(f"{path.name}: {len(id_set)} distinct of {len(ids)} ids, {n_test} test flows")
        if universe is None:
            universe = id_set
        elif id_set != universe:
            raise OutputError(f"{path.name}: ids differ from {paths[0].name}")
    return len(paths)


def check_outputs(out_dir: Path, stdout: str, expect_queues: bool) -> dict[str, str]:
    """Run every check on one command's results; return the group digests.
    The fingerprints are compared by the caller."""
    stamp = parse_stamp(stdout)
    digests = group_digests(out_dir, stamp)
    expected = set(GROUPS) if expect_queues else {"splits", "calibration"}
    if set(digests) != expected:
        raise OutputError(f"artifact groups {sorted(digests)} != {sorted(expected)}")
    if expect_queues and check_queues(out_dir) == 0:
        raise OutputError("no queue CSVs written")
    return digests
