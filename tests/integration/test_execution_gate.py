"""The execution gate's own parts, statically and on a toy tree.

The gate (``tests/execution/gate.py``) runs every root that is not a test
under a recorder and fails on any function under ``src/repro`` that none
of them ran and ``ALLOWED`` does not explain. Running the roots takes
minutes, so CI does it in a job of its own; tier-1 checks what can go
stale between those runs: every ``ALLOWED`` key names a live function (or
file), the function table keys code as its code objects report it, and
the recorder catches calls on other threads and in forked children.
"""

import os
import subprocess
import sys

import pytest

from tests.execution.gate import ALLOWED, HOOK, functions, read_records, verdict


def test_every_allowed_key_names_a_live_function_or_file():
    table = functions()
    files = {key.split(":")[0] for key in table}
    gone = [key for key in ALLOWED
            if key not in table and key not in files]
    assert gone == []
    assert all(reason.strip() for reason in ALLOWED.values())


TOY = '''\
import functools


def plain():
    return 1


class Box:
    @property
    def size(self):
        return 2

    @size.setter
    def size(self, value):
        pass

    @functools.lru_cache(maxsize=None)
    def cached(self):
        def inner():
            return 3
        return inner()
'''


@pytest.fixture
def toy(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "toy.py").write_text(TOY)
    return tmp_path / "src"


def test_functions_are_keyed_by_qualname_and_first_line(toy):
    table = functions(toy)
    assert table == {
        "repro/toy.py:<module>": ("repro/toy.py", 1, "<module>"),
        "repro/toy.py:plain": ("repro/toy.py", 4, "plain"),
        "repro/toy.py:Box.size": ("repro/toy.py", 9, "size"),
        "repro/toy.py:Box.size@13": ("repro/toy.py", 13, "size"),
        "repro/toy.py:Box.cached": ("repro/toy.py", 17, "cached"),
        "repro/toy.py:Box.cached.<locals>.inner":
            ("repro/toy.py", 19, "inner"),
    }
    # the first line a code object reports, decorators included
    namespace = {}
    exec(compile(TOY, "toy", "exec"), namespace)
    box = namespace["Box"]
    assert box.size.fget.__code__.co_firstlineno == 9
    assert box.size.fset.__code__.co_firstlineno == 13
    assert box.cached.__wrapped__.__code__.co_firstlineno == 17


def test_verdict_names_the_unrun_the_allowed_that_ran_and_the_gone(toy):
    table = functions(toy)
    ran = {table[key] for key in ("repro/toy.py:<module>",
                                  "repro/toy.py:plain",
                                  "repro/toy.py:Box.size")}
    allowed = {"repro/toy.py:plain": "runs after all",
               "repro/toy.py:Box.cached": "never called",
               "repro/toy.py:Box.gone": "deleted since"}
    assert verdict(table, ran, allowed) == {
        "unrun": ["repro/toy.py:Box.cached.<locals>.inner",
                  "repro/toy.py:Box.size@13"],
        "allowed_but_ran": ["repro/toy.py:plain"],
        "allowed_but_gone": ["repro/toy.py:Box.gone"],
    }
    # a bare path covers what does not run in it, and fails once all runs
    assert verdict(table, ran, {"repro/toy.py": "whole file"}) == {
        "unrun": [], "allowed_but_ran": [], "allowed_but_gone": []}
    everything = set(table.values())
    assert verdict(table, everything, {"repro/toy.py": "whole file"})[
        "allowed_but_ran"] == ["repro/toy.py"]


SCRIPT = '''\
import os
import sys
import threading

sys.path.insert(0, {src!r})
from repro.toy import Box, plain

thread = threading.Thread(target=plain)
thread.start()
thread.join()
pid = os.fork()
if pid == 0:
    Box().cached()
    os._exit(0)
os.waitpid(pid, 0)
'''


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_the_recorder_sees_threads_and_forked_children(toy, tmp_path):
    out = tmp_path / "records"
    out.mkdir()
    script = tmp_path / "root.py"
    script.write_text(SCRIPT.format(src=str(toy)))
    env = dict(os.environ, REPRO_EXECUTION_RECORD=str(out),
               REPRO_EXECUTION_SOURCE=str(toy), PYTHONPATH=str(HOOK))
    subprocess.run([sys.executable, str(script)], env=env, check=True,
                   timeout=60)
    table = functions(toy)
    assert verdict(table, read_records(out), {})["unrun"] == [
        "repro/toy.py:Box.size", "repro/toy.py:Box.size@13"]
