"""Record which code objects under one source tree run in this process.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one, so putting this directory on ``PYTHONPATH``
arms every interpreter a root starts: the root itself, a child it runs
with :mod:`subprocess`, a pytest run. ``REPRO_EXECUTION_RECORD`` names
the directory the records go to and ``REPRO_EXECUTION_SOURCE`` the tree
whose code counts; with the first unset, this module does nothing.

Each process writes ``<dir>/<pid>-<random>.txt`` at exit, one line
``path<TAB>first line<TAB>name`` per code object that started, the path
relative to the source tree. A child made by a bare ``os.fork`` (the host
pool's workers) inherits the hook and leaves through ``os._exit``, which
is wrapped so that it writes its own file first.

On Python 3.12 and later the hook is :mod:`sys.monitoring`'s ``PY_START``
event, turned off per code object after its first call, so a run costs
little more than a plain one; before 3.12 it is ``sys.setprofile`` plus
``threading.setprofile``, called on every Python call.
"""

import os
import sys
import threading

_OUT = os.environ.get("REPRO_EXECUTION_RECORD")
_SOURCE = os.path.realpath(os.environ.get("REPRO_EXECUTION_SOURCE", "."))
_seen = set()


def _dump():
    rows = set()
    for code in list(_seen):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_SOURCE + os.sep):
            rows.add(f"{os.path.relpath(path, _SOURCE)}\t"
                     f"{code.co_firstlineno}\t{code.co_name}")
    name = f"{os.getpid()}-{os.urandom(4).hex()}.txt"
    with open(os.path.join(_OUT, name), "w") as out:
        out.write("".join(row + "\n" for row in sorted(rows)))


def _install():
    import atexit

    if hasattr(sys, "monitoring"):
        monitoring = sys.monitoring
        tool = monitoring.COVERAGE_ID
        monitoring.use_tool_id(tool, "repro-execution-record")

        def started(code, _offset):
            _seen.add(code)
            return monitoring.DISABLE

        monitoring.register_callback(tool, monitoring.events.PY_START,
                                     started)
        monitoring.set_events(tool, monitoring.events.PY_START)
    else:
        def profile(frame, event, _arg):
            if event == "call":
                _seen.add(frame.f_code)

        sys.setprofile(profile)
        threading.setprofile(profile)

    atexit.register(_dump)
    real_exit = os._exit

    def _exit(status):
        _dump()
        real_exit(status)

    os._exit = _exit


if _OUT:
    _install()
