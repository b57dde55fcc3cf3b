"""Every file and module DESIGN.md and README.md cite exists.

A citation is a backticked ``….py`` / ``….json`` path or a ``repro.x.y``
module (fenced code blocks count for modules: ``python -m repro.…``
lines rot the same way). A path resolves against the repository root,
``src/repro/`` or ``src/``, or, written bare, as a file name under
``tests/``. A module resolves when its longest importable prefix is a
module and the next component, if any, is a name defined there. A
deleted module or script therefore takes its citations with it in the
same change.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("DESIGN.md", "README.md")

#: files the docs tell the reader to write, not files in the repository
OUTPUTS = {"trace.json"}

FENCE = re.compile(r"```.*?```", re.S)
SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"(?<![\w./*-])([\w./*-]*[\w*]\.(?:py|json))(?!\w)")
MODULE = re.compile(r"(?<![\w.])(repro(?:\.\w+)+)")


def citations(doc):
    """``(paths, modules)`` cited in one document."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    inline = SPAN.findall(FENCE.sub("", text))
    paths = {p for span in inline for p in PATH.findall(span)}
    modules = {m for span in inline for m in MODULE.findall(span)}
    for block in FENCE.findall(text):
        modules.update(MODULE.findall(block))
    return paths - OUTPUTS, modules


def path_resolves(path):
    if any(list(base.glob(path))
           for base in (ROOT, ROOT / "src" / "repro", ROOT / "src")):
        return True
    return "/" not in path and any((ROOT / "tests").rglob(path))


def module_resolves(dotted):
    parts = dotted.split(".")
    for end in range(len(parts), 1, -1):
        try:
            module = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        return end == len(parts) or hasattr(module, parts[end])
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_and_module_resolves(doc):
    paths, modules = citations(doc)
    assert paths and modules
    assert sorted(p for p in paths if not path_resolves(p)) == []
    assert sorted(m for m in modules if not module_resolves(m)) == []


def test_a_deleted_module_or_path_does_not_resolve():
    assert not module_resolves("repro.bench.history")
    assert not module_resolves("repro.obs.timeseries.TimeSeriesStore")
    assert not path_resolves("bench/profile.py")
    assert not path_resolves("test_history.py")
    assert not path_resolves("tools/bench_regress.py")
    assert not path_resolves("benchmarks/host_perf.py")
    assert module_resolves("repro.obs.metrics.NicMonitor")
    assert path_resolves("obs/metrics.py")
    assert path_resolves("BENCHMARK.json")
    assert path_resolves("test_emit_cost.py")
