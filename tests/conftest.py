"""Shared test helpers."""

import os
from pathlib import Path

import numpy as np
import pytest

from fracpme.diagnostics import CSV_COLUMNS


def _read_diagnostics(path) -> dict:
    """Columns of a diagnostics CSV as float arrays, keyed by column name."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: bad or missing diagnostics header")
    rows = [np.array(line.split(","), dtype=float) for line in lines[1:]]
    if any(r.size != len(CSV_COLUMNS) for r in rows):
        raise ValueError(f"{path}: ragged diagnostics row")
    table = np.array(rows) if rows else np.empty((0, len(CSV_COLUMNS)))
    return {name: table[:, j] for j, name in enumerate(CSV_COLUMNS)}


@pytest.fixture
def read_diagnostics():
    """The reader of the diagnostics.csv files the CLI writes."""
    return _read_diagnostics


@pytest.fixture
def cores(monkeypatch):
    """A function of `count` that makes the process see `count` available
    cores and returns a list that gains one entry per fork from then on."""
    def set_cores(count: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks
    return set_cores
