#!/usr/bin/env python3
"""AST lint: no deprecated aggregation kwargs inside ``src/``.

The AggregationSpec redesign keeps the old per-call keywords working at
the *public* entry points (one ``DeprecationWarning`` each, see
``repro.core.spec.spec_with_legacy``), but the engine itself must be
fully migrated: internal code passes a spec, never the legacy kwargs.
This lint walks every call in the tree and flags keyword arguments from
the deprecated set, unless the callee is one of the places those names
legitimately live on (the spec type itself, the shim helpers, the
resolution functions, or a constructor that owns the field).

Since the ``SparkerSession`` redesign it also flags **direct
``SparkerContext(...)`` construction** under ``src/``: workload-running
code must go through a session (``SparkerSession.run`` / ``.submit`` /
``.context()``), so context construction is confined to the session
layer and the context module itself (``CONTEXT_ALLOWED_FILES``).

Usage::

    python tools/lint_deprecated_kwargs.py [paths...]   # default: src

Exits non-zero when any violation is found. Also invoked by
``tests/core/test_no_deprecated_kwargs.py`` so the gate runs with the
tier-1 suite, and by the ``collectives-smoke`` CI job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: legacy split_aggregate/trainer keywords that internal code must not pass
DEPRECATED_KWARGS = frozenset({
    "sparse_aggregation", "sparse_policy", "host_pool",
})

#: callees on which these names are fields/parameters, not legacy shims
ALLOWED_CALLEES = frozenset({
    "AggregationSpec",      # the spec constructor owns the fields
    "replace",              # AggregationSpec.replace / dataclasses.replace
    "spec_with_legacy",     # the shim helper receives them by design
    "warn_deprecated_kwarg",
    "resolve_sparse_policy",
    "resolve_host_pool",
    "HostPool",
    "SparkerContext",       # host_pool is a context-level resource knob
    "dict",                 # plain record building (reports, JSON)
})

#: the only ``src/`` files allowed to construct a SparkerContext directly
#: (matched by suffix so the lint works from any checkout root)
CONTEXT_ALLOWED_FILES = (
    "repro/rdd/context.py",       # the class itself (docstrings, helpers)
    "repro/service/session.py",   # SparkerSession.run / .context()
    "repro/service/server.py",    # the shared service context
)


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return "<dynamic>"


def lint_file(path: Path) -> List[Tuple[int, str, str]]:
    """All violations in one file as ``(line, callee, kwarg)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out: List[Tuple[int, str, str]] = []
    posix = path.as_posix()
    context_allowed = posix.endswith(CONTEXT_ALLOWED_FILES)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee_name(node)
        if callee == "SparkerContext" and not context_allowed:
            out.append((node.lineno, callee, "<direct construction>"))
        if callee in ALLOWED_CALLEES:
            continue
        for keyword in node.keywords:
            if keyword.arg in DEPRECATED_KWARGS:
                out.append((node.lineno, callee, keyword.arg))
    return out


def lint_paths(paths: Iterable[Path]) -> List[str]:
    """Human-readable violation lines for every ``.py`` under ``paths``."""
    messages: List[str] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for line, callee, kwarg in lint_file(path):
                if kwarg == "<direct construction>":
                    messages.append(
                        f"{path}:{line}: direct SparkerContext() "
                        f"construction — go through SparkerSession "
                        f"(.run/.submit/.context())")
                else:
                    messages.append(
                        f"{path}:{line}: deprecated kwarg {kwarg!r} passed "
                        f"to {callee}() — pass "
                        f"spec=AggregationSpec({kwarg}=...) instead")
    return messages


def main(argv: List[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    paths = ([Path(p) for p in argv] if argv else [repo / "src"])
    messages = lint_paths(paths)
    for message in messages:
        print(message)
    if messages:
        print(f"{len(messages)} deprecated-kwarg use(s) found",
              file=sys.stderr)
        return 1
    print("no deprecated aggregation kwargs found")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
