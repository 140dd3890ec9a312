"""Shared builders for the test suite."""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from fuzztriage.alerts import AlertBatch, PreparedAlert


def make_record(
    alert_id: str,
    core: float,
    spread: float,
    height: float,
    p: float,
    label: int | None = 1,
    attack_class: str = "DoS",
    cf: float = 0.8,
    uf: float = 0.2,
    h_class: float | None = None,
) -> PreparedAlert:
    """One alert row with explicit fuzzy parameters, bypassing assembly."""
    return PreparedAlert(
        alert_id=alert_id,
        attack_class=attack_class,
        p=p,
        cf=cf,
        uf=uf,
        h_class=height if h_class is None else h_class,
        core=core,
        spread=spread,
        height=height,
        label=label,
    )


def make_batch(records: Iterable[PreparedAlert]) -> AlertBatch:
    """AlertBatch holding the given rows in order, bypassing assembly."""
    rows = list(records)

    def column(name: str) -> tuple:
        return tuple(getattr(r, name) for r in rows)

    return AlertBatch(
        ids=column("alert_id"),
        classes=column("attack_class"),
        labels=column("label"),
        **{name: column(name) for name in ("p", "cf", "uf", "h_class", "core", "spread", "height")},
    )


def alert_columns(rows: Iterable[tuple]) -> dict[str, tuple]:
    """``(id, class, p, label, criticality)`` rows as the alert columns,
    keyed as ``assemble`` names them."""
    names = ("ids", "classes", "p", "labels", "criticalities")
    columns = list(zip(*rows)) or [()] * len(names)
    return dict(zip(names, columns))


def random_batch(rng: np.random.Generator, n: int) -> AlertBatch:
    """Batch of n alerts with randomized cores, heights, probabilities."""
    records = []
    for i in range(n):
        core = float(rng.uniform(0.5, 10.0))
        uf = float(rng.uniform(0.05, 0.5))
        records.append(
            make_record(
                alert_id=f"a{i:04d}",
                core=core,
                spread=max(core * uf, 1e-6),
                height=float(rng.uniform(0.05, 1.0)),
                p=float(rng.uniform(0.0, 1.0)),
                label=int(rng.integers(0, 2)),
                uf=uf,
            )
        )
    return make_batch(records)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
