"""Shared benchmark harness utilities.

Every benchmark module regenerates one table or figure from the paper's
evaluation (§5): it produces the same rows/series the paper reports,
writes them to ``benchmarks/results/*.csv``, prints a digest, and asserts
the paper's qualitative claims (orderings, gaps, crossovers, saturation).
Absolute values come from a simulated testbed calibrated to the paper's
anchor numbers — see ``DESIGN.md`` §3 and ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Sequence

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> Path:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def print_series(title: str, header: Sequence[str],
                 rows: List[Sequence[object]], every: int = 1) -> None:
    """Print a paper-style data series (subsampled for readability)."""
    print(f"\n--- {title} ---")
    print("  " + "  ".join(f"{h:>12}" for h in header))
    for index, row in enumerate(rows):
        if index % every == 0 or index == len(rows) - 1:
            print("  " + "  ".join(_fmt(value) for value in row))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:>12.1f}"
    return f"{value!s:>12}"
