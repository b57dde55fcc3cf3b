"""A run is configured by its arguments only.

``AggregationSpec`` and the context's own arguments are the only way in:
no environment variable reaches the engine, so a stray ``SPARKER_*`` in
a shell cannot change what a run computes, records or takes.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np

from repro import ClusterConfig, SparkerSession

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CFG = ClusterConfig.laptop(2)

#: names the engine once read ambiently, with values that changed a run
AMBIENT = {
    "SPARKER_COLLECTIVE": "hd",
    "SPARKER_PARALLELISM": "8",
    "SPARKER_SPARSE_AGG": "1",
    "SPARKER_CHUNK_BYTES": "65536",
}


def _run():
    result = SparkerSession(CFG).run("LR-A", "split", iterations=2)
    weights = np.asarray(result.final_weights).tobytes()
    return (hashlib.sha256(weights).hexdigest(), result.end_to_end,
            result.sim_events)


def _submit():
    with SparkerSession(CFG) as session:
        handle = session.submit("LR-A", aggregation="split", iterations=1)
        return handle.result().end_to_end


def test_the_environment_cannot_change_a_run(monkeypatch):
    unset = _run()
    for name, value in AMBIENT.items():
        monkeypatch.setenv(name, value)
    assert _run() == unset


def test_the_environment_cannot_undo_a_service_downgrade(monkeypatch):
    unset = _submit()
    monkeypatch.setenv("SPARKER_COLLECTIVE", "pipelined_ring")
    assert _submit() == unset


def _reads_the_environment(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv", "environb",
                                  "putenv", "unsetenv")):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ("environ", "getenv")
                      for alias in node.names)):
            yield node.lineno


def test_nothing_under_src_reads_the_environment():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _reads_the_environment(ast.parse(path.read_text()))
    ]
    assert offenders == []
