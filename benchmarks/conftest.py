"""Shared helpers for the figure-regeneration benchmark suite.

Every benchmark regenerates one table or figure of the paper, prints the
rows the paper plots, saves them under ``benchmarks/results/`` (the
artifacts EXPERIMENTS.md is built from), and asserts the *qualitative*
shape — who wins, monotonicity, crossovers — never absolute numbers.

Run the suite with ``pytest benchmarks/ --ignore=benchmarks/ledger`` (numpy,
pytest and hypothesis are all it needs), one exhibit with
``pytest benchmarks/test_fig16_aggregation_scaling.py -s``.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record():
    """Print a rendered table and persist it under benchmarks/results/."""
    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n",
                                                 encoding="utf-8")
        print()
        print(text)

    return _record

