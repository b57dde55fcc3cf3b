"""The package layers import downward only.

``ml`` builds on ``core`` (its trainers call core's aggregations) and
``service`` on both, so nothing under ``core`` may import ``repro.ml`` or
``repro.service``; ``comm`` sits below ``core``, so nothing under ``comm``
may import ``repro.core``; the engine (``rdd``) owns task-slot
arbitration and the service only configures it, so nothing under ``rdd``
may import ``repro.service``. Imports inside a function count: a
deferred import is still an edge.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: package under src/repro -> packages it must never import
FORBIDDEN = {
    "core": ("repro.ml", "repro.service"),
    "comm": ("repro.core",),
    "rdd": ("repro.service",),
}


def _module_name(path, src):
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported(path, src=SRC):
    """``(line, module)`` for every import in ``path``, relative ones
    resolved; ``from pkg import name`` also yields ``pkg.name``."""
    package = _module_name(path, src).split(".")
    if path.name != "__init__.py":
        package.pop()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_a_layer_never_imports_the_layers_above_it(layer):
    offenders = [
        f"{path.relative_to(SRC)}:{line} imports {module}"
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for line, module in _imported(path)
        if any(module == f or module.startswith(f + ".")
               for f in FORBIDDEN[layer])
    ]
    assert offenders == []


def test_the_resolver_sees_relative_and_deferred_imports(tmp_path):
    root = tmp_path / "repro" / "core"
    root.mkdir(parents=True)
    probe = root / "probe.py"
    probe.write_text("def f():\n    from ..ml.aggregators import X\n"
                     "from .. import service\n")
    assert sorted(m for _, m in _imported(probe, tmp_path)) == [
        "repro", "repro.ml.aggregators", "repro.ml.aggregators.X",
        "repro.service"]
