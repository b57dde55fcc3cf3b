"""Each verb of the reduce path is written once, and stays written once.

A hop's deadline (``RecvTimeout`` -> ``ExecutorLost``), a hop's record
(``RingHop``) and an in-memory merge's record (``ImmMerge``) each used to
exist in three to five copies that drifted apart one field at a time
(the allgather's unsized tuple, the derived segment without chunk
columns). The counts below are read off the syntax tree, so they repeat
exactly; at the commit before the sites were folded they were
5 / 4 / 3, with 4 ``getattr(comm, ...)`` reads of stream state and one
function-level import of ``repro.core`` from ``repro.comm``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
COMM = sorted((SRC / "comm").glob("*.py"))
IMM = SRC / "core" / "imm.py"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _nodes(paths, kind):
    return [(path.name, node) for path in paths
            for node in ast.walk(_tree(path)) if isinstance(node, kind)]


def _calls_to(paths, owner, attr):
    """``owner.attr(...)`` call sites, as ``file:line``."""
    return [f"{name}:{node.lineno}" for name, node in _nodes(paths, ast.Call)
            if isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == owner]


def _handled(handler):
    """Names an ``except`` clause catches."""
    kind = handler.type
    kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return {k.id for k in kinds if isinstance(k, ast.Name)}


def test_one_deadline_translation():
    sites = [f"{name}:{node.lineno}"
             for name, node in _nodes(COMM + [IMM], ast.ExceptHandler)
             if "RecvTimeout" in _handled(node)]
    assert len(sites) == 1, sites


def test_one_hop_record():
    sites = _calls_to(COMM + [IMM], "RingHop", "fast")
    assert len(sites) == 1, sites


def test_one_imm_merge_record():
    sites = _calls_to(COMM + [IMM], "ImmMerge", "fast")
    assert len(sites) == 1, sites


def test_stream_state_is_not_read_off_the_communicator_by_name():
    reads = [f"{name}:{node.lineno}"
             for name, node in _nodes([SRC / "comm" / "collectives.py"],
                                      ast.Call)
             if isinstance(node.func, ast.Name) and node.func.id == "getattr"
             and node.args and isinstance(node.args[0], ast.Name)
             and node.args[0].id == "comm"]
    assert reads == []


def test_comm_never_reaches_into_core_from_a_function_body():
    """``core`` builds on ``comm``; an import the other way, hidden in a
    function so the cycle does not bite, is how ``DEFAULT_CHUNK_BYTES``
    came to be looked up on every pipelined call."""
    lazy = []
    for path in COMM:
        for func in ast.walk(_tree(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                elif isinstance(node, ast.Import):
                    module = " ".join(alias.name for alias in node.names)
                else:
                    continue
                if "repro.core" in module or module.startswith("..core"):
                    lazy.append(f"{path.name}:{node.lineno} {module}")
    assert lazy == []
