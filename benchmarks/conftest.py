"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures at a
reduced (but meaningful) measurement scale, prints the same rows the
paper reports, and asserts the paper's bands on them.  They are plain
tests: ``bench/run.py`` is the repo's timing tool.

Set ``SABRES_BENCH_SCALE`` (default 0.25) to trade time for precision;
1.0 reproduces the full-size runs.
"""

from __future__ import annotations

import os

import pytest


def bench_scale() -> float:
    return float(os.environ.get("SABRES_BENCH_SCALE", "0.25"))


@pytest.fixture
def scale() -> float:
    return bench_scale()


def show(title: str, table: str) -> None:
    print(f"\n=== {title} ===")
    print(table)
