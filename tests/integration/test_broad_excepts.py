"""A ratchet on handlers that catch every failure.

An ``except Exception`` (or ``BaseException``, or a bare ``except:``)
turns any bug under it into whatever the handler does next, so each one
is a place a failure can go quiet. This test pins how many each file
under ``src/repro`` has, and fails when a count changes in either
direction: a new broad handler has to be argued for here, and a deleted
one lowers the pin so it cannot come back unnoticed. A tuple that names
``Exception`` or ``BaseException`` counts too.
"""

import ast
from collections import Counter
from pathlib import Path

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

#: broad handlers per file; every file not listed (``core/sai.py``
#: included) has none
PINNED = {
    "rdd/context.py": 1,
    "rdd/executor.py": 2,
    "rdd/fair.py": 1,
    "rdd/hostpool.py": 9,
    "rdd/scheduler.py": 6,
    "service/reactor.py": 2,
    "service/server.py": 2,
    "sim/events.py": 2,
}

BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = (handler.type.elts if isinstance(handler.type, ast.Tuple)
              else [handler.type])
    return any(isinstance(node, ast.Name) and node.id in BROAD
               or isinstance(node, ast.Attribute) and node.attr in BROAD
               for node in caught)


def broad_excepts(root: Path = REPRO) -> Counter:
    """``{path relative to root: broad handlers in it}``."""
    counts = Counter()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node):
                counts[path.relative_to(root).as_posix()] += 1
    return counts


def test_broad_except_counts_are_pinned():
    counts = broad_excepts()
    moved = {path: (PINNED.get(path, 0), counts.get(path, 0))
             for path in set(PINNED) | set(counts)
             if PINNED.get(path, 0) != counts.get(path, 0)}
    assert not moved, (
        "broad except handlers changed, {path: (pinned, now)}: "
        f"{dict(sorted(moved.items()))}. Catch what the handler can "
        "answer; lower a pin when a handler goes")
