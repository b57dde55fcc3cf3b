"""The deprecated-kwarg lint runs with the tier-1 suite.

``src/`` must be fully migrated to AggregationSpec: the legacy keywords
survive only as warn-and-forward shims at public entry points, so any
*internal* call passing one is a regression. The same walk backs the
``collectives-smoke`` CI job via ``tools/lint_deprecated_kwargs.py``.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from lint_deprecated_kwargs import lint_file, lint_paths  # noqa: E402


def test_src_has_no_deprecated_kwarg_uses():
    messages = lint_paths([REPO / "src"])
    assert messages == []


def test_lint_catches_a_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "rdd.split_aggregate(zero, seq, split, red, cat,\n"
        "                    sparse_aggregation=True)\n",
        encoding="utf-8")
    violations = lint_file(bad)
    assert violations == [(1, "split_aggregate", "sparse_aggregation")]


def test_lint_allows_the_spec_layer(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text(
        "spec = AggregationSpec(sparse_aggregation=True, host_pool=None)\n"
        "spec2 = spec.replace(host_pool=2)\n"
        "spec3 = spec_with_legacy(spec, 'site', sparse_policy=policy)\n",
        encoding="utf-8")
    assert lint_file(ok) == []
