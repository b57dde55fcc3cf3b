"""No measurement path beside the ledger.

Whether the code under ``src/repro`` runs under a root that is not a
test is the execution gate's question (``tests/execution/gate.py``, its
own CI job): it records every function the examples, the exhibits and
the ledger run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_the_ledger_is_the_only_measurement_path():
    """``benchmarks/`` holds the ledger, the paper's exhibits (``test_*.py``
    and their ``results/``) and nothing else, and no ``BENCH_*.json`` sits
    at the root: a number is measured by the ledger or asserted by a
    test, never by a second script with an artifact of its own."""
    top = {path.name for path in (ROOT / "benchmarks").iterdir()
           if path.name != "__pycache__"}
    assert {"ledger", "results", "conftest.py"} <= top
    assert {name for name in top - {"ledger", "results", "conftest.py"}
            if not (name.startswith("test_") and name.endswith(".py"))} == set()
    assert list(ROOT.glob("BENCH_*.json")) == []
