"""The execution gate: every named function and module body under
``src/repro`` runs under a root that is not a test, or :data:`ALLOWED`
says why it does not.

A root is an example, a paper exhibit (``benchmarks/test_*.py``), a
ledger workload or the ledger's microbenchmarks; the ``python -m
repro.obs`` CLI is rooted by ``examples/service_and_trace.py``. Tests are
never roots: code that only a test calls has no caller to break and no
number to move, and is deleted. Run from the root of a checkout::

    python tests/execution/gate.py

runs every root in a fresh interpreter with ``hook/`` on ``PYTHONPATH``
(so each child process a root starts records too), then prints each
function no root ran and no entry explains, each entry whose function
ran, and each entry that names nothing, and exits 1 if there is any.
``--keep DIR`` keeps the raw records; ``--check DIR`` re-reads them
without running anything; ``--root NAME`` runs only the named roots
(``--list`` prints the names).

Functions are keyed ``path:qualname`` with the path relative to ``src/``
(``repro/comm/mpi.py:MpiCommunicator.reduce_scatter``); a module body is
``path:<module>``. A key of a bare path covers every function in that
file that no root runs, and fails once none is left.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"
LEDGER_WORKLOADS = ("chaos_agg", "fabric_1000flows", "train_tree",
                    "train_split", "service_mix")

_HOST_POOL = "the host pool: ROADMAP item 5 deletes it"
_ORACLE = "test oracle: "
_SAFETY = "safety code the engine can meet but no root provokes: "

#: never run by a root, on purpose; the reason is the whole of the case
ALLOWED = {
    # ---- safety: fault, race and commit handling
    "repro/rdd/speculation.py:CommitGate.release":
        _SAFETY + "a speculative clone that dies holding the commit",
    "repro/rdd/speculation.py:CommitGate.winner":
        _SAFETY + "which attempt holds a contested commit",
    "repro/rdd/speculation.py:SpeculationWave.await_commit":
        _SAFETY + "an original that loses the commit race to its clone",
    "repro/sim/events.py:Process._step_fail":
        _SAFETY + "an exception thrown into a waiting process",
    "repro/core/imm.py:MutableObjectManager.clear_job":
        _SAFETY + "the job server's sweep of the aggregators a job "
                  "cancelled or failed mid-stage leaves behind",
    "repro/rdd/shuffle.py:FetchFailed.__init__":
        _SAFETY + "a shuffle block lost with its executor",
    "repro/obs/events.py:_first_to_record":
        _SAFETY + "serializing an event built by its constructor before "
                  "any fast() of its class generated to_record (every "
                  "root emits through fast())",
    # ---- test oracles
    "repro/ml/columnar.py:ColumnarSeqOp.__init__.<locals>.cost":
        _ORACLE + "the per-row fold the partition fold is == to",
    "repro/ml/columnar.py:ColumnarSeqOp.__init__.<locals>.fold":
        _ORACLE + "the per-row fold the partition fold is == to",
    "repro/ml/lda.py:EStepSeqOp.__init__.<locals>.cost":
        _ORACLE + "the per-document E-step the partition fold is == to",
    "repro/ml/lda.py:EStepSeqOp.__init__.<locals>.fold":
        _ORACLE + "the per-document E-step the partition fold is == to",
    "repro/ml/gradient.py:Gradient.multiplier_and_loss":
        _ORACLE + "the per-point definition the columnar fold is == to",
    "repro/ml/gradient.py:Gradient.multipliers_and_losses":
        _ORACLE + "the per-point definition the columnar fold is == to",
    "repro/ml/gradient.py:LeastSquaresGradient.multiplier_and_loss":
        _ORACLE + "the per-point definition the columnar fold is == to",
    "repro/ml/gradient.py:LeastSquaresGradient.multipliers_and_losses":
        _ORACLE + "the per-point definition the columnar fold is == to",
    "repro/cluster/flows.py:FlowNetwork.rate_of":
        _ORACLE + "tests/cluster/test_flows_reference.py reads each "
                  "flow's rate against progressive filling",
    "repro/cluster/flows.py:FlowNetwork.link_rate":
        _ORACLE + "tests/cluster/test_flows_reference.py reads each "
                  "link's load against its capacity",
    "repro/cluster/flows.py:FlowNetwork.active_flows":
        _ORACLE + "tests/cluster/test_flows_reference.py counts the flows "
                  "in the network at every instant",
    "repro/sim/core.py:Environment.peek":
        _ORACLE + "tests/cluster/test_flows_reference.py steps the kernel "
                  "instant by instant",
    "repro/sim/calendar.py:BucketCalendar.__len__":
        _ORACLE + "tests/sim/test_calendar.py checks the calendar's size "
                  "against a heap after every operation",
    # ---- interface declarations: every subclass overrides them
    "repro/rdd/rdd.py:RDD.num_partitions": "abstract: every RDD overrides it",
    "repro/rdd/rdd.py:RDD.compute": "abstract: every RDD overrides it",
    "repro/rdd/tasks.py:Task.run": "abstract: every task kind overrides it",
    "repro/ml/updater.py:Updater.compute":
        "abstract: every updater overrides it",
    "repro/comm/collectives.py:CollectiveAlgorithm.step":
        "abstract: every per-rank collective overrides it",
    "repro/serde/sizeof.py:SimSized.__sim_size__":
        "the protocol's declaration; implementations define their own",
    # ---- read by the ledger's traced run, which installs cProfile and
    # so cannot be recorded under sys.setprofile (Python < 3.12)
    "repro/obs/critical_path.py:CriticalPathReport.totals":
        "the ledger's --trace 1 run reads it (ledger_layers.py)",
    # ---- the sparse tier inside one executor, and what tests read
    "repro/ml/aggregators.py:SparseAccumulator.densify":
        "a sparse partial merged with one that folded past the break-even "
        "density; no cell of the tiers' exhibit folds an executor's "
        "partial that dense (their unions cross it on the ring, where "
        "AggregatorSegment.sparse densifies)",
    "repro/ml/aggregators.py:SparseAccumulator._densify":
        "a sparse partial folded past the break-even density; no cell of "
        "the tiers' exhibit folds an executor's partial that dense",
    "repro/ml/aggregators.py:FlatAggregator.buf":
        _ORACLE + "the classic dense layout the aggregator tests compare "
                  "and fill; the engine reads payload and the statistics",
    "repro/ml/aggregators.py:FlatAggregator.payload_nnz":
        _ORACLE + "the fold oracles compare a partial's pending entry "
                  "count with the per-row fold's",
    "repro/ml/aggregators.py:FlatAggregator.copy":
        _ORACLE + "the fold oracles read a partial's bytes without "
                  "densifying the partial under test",
    "repro/ml/aggregators.py:SparseAccumulator.copy":
        _ORACLE + "FlatAggregator.copy's sparse state",
    "repro/obs/critical_path.py:FaultReport.residual_norm_lost":
        _SAFETY + "the error-feedback mass an executor death destroys "
                  "(top-k refuses a recovery policy, so no fault root "
                  "runs top-k)",
    # ---- ROADMAP item 5: the host pool
    "repro/rdd/hostpool.py": _HOST_POOL,
    "repro/rdd/storage.py:CachedPartition.__reduce__":
        _HOST_POOL + " (a cached partition pickled to a pool worker)",
    # ---- the paper's dataset format
    "repro/data/libsvm.py": (
        "the format the paper's datasets (Table 2) are distributed in; "
        "their files are not in the repository, so every root runs on "
        "the synthetic surrogates of data/registry.py, and a user with "
        "the real files needs it"),
}

#: function names covered wherever they are, run or not
ALLOWED_NAMES = {
    "__repr__": "display only",
    "__str__": "display only",
}


def ledger(root: Path, *flags: str) -> list:
    """The ledger's command line in the checkout at ``root``."""
    return [sys.executable, str(root / "benchmarks" / "ledger" / "run.py"),
            *flags]


def roots(root: Path = ROOT) -> dict:
    """Root name -> ``(argv, cwd or None for a scratch directory)`` in the
    checkout at ``root``."""
    python = sys.executable
    found = {f"example:{path.stem}": ([python, str(path)], None)
             for path in sorted((root / "examples").glob("*.py"))}
    found["figures"] = ([python, "-m", "pytest", "benchmarks",
                         "--ignore=benchmarks/ledger", "-q",
                         "-p", "no:cacheprovider"], root)
    for name in LEDGER_WORKLOADS:
        found[f"ledger:{name}"] = (ledger(root, "--workload", name,
                                          "--smoke", "--trace", "0"), root)
    found["ledger:micro"] = (ledger(root, "--micro", "--smoke"), root)
    return found


def functions(src: Path = SRC) -> dict:
    """``path:qualname`` -> ``(path, first line, name)`` for every named
    function and module body below ``src/repro``.

    The first line is what the code object reports: a decorated
    function's starts at its first decorator.
    """
    table = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        table[f"{rel}:<module>"] = (rel, 1, "<module>")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    key = f"{rel}:{prefix}{child.name}"
                    if key in table:  # a property's setter, a redefinition
                        key = f"{key}@{first}"
                    table[key] = (rel, first, child.name)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return table


def read_records(directory: Path) -> set:
    """Every ``(path, first line, name)`` some process recorded."""
    ran = set()
    for record in Path(directory).glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            path, first, name = line.split("\t")
            ran.add((path, 1 if name == "<module>" else int(first), name))
    return ran


def verdict(table: dict, ran: set, allowed: dict) -> dict:
    """The three ways the gate fails, each a sorted list of keys."""
    unrun = {key for key, where in table.items()
             if where not in ran and where[2] not in ALLOWED_NAMES}
    files = {key for key in allowed if ":" not in key}

    def covered(key):
        return key in allowed or key.split(":")[0] in files

    return {
        "unrun": sorted(key for key in unrun if not covered(key)),
        "allowed_but_ran": sorted(
            [key for key in allowed if key in table and key not in unrun]
            + [path for path in files
               if not any(key.startswith(path + ":") for key in unrun)
               and any(key.startswith(path + ":") for key in table)]),
        "allowed_but_gone": sorted(
            key for key in allowed
            if key not in table
            and not any(k.startswith(key + ":") for k in table)),
    }


def record(names, out: Path) -> None:
    """Run the named roots with the hook armed, records into ``out``."""
    env = dict(os.environ, REPRO_EXECUTION_RECORD=str(out),
               REPRO_EXECUTION_SOURCE=str(SRC),
               PYTHONPATH=os.pathsep.join(
                   [str(HOOK), str(SRC)]
                   + [p for p in os.environ.get("PYTHONPATH", "").split(
                       os.pathsep) if p]))
    table = roots()
    for name in names:
        argv, cwd = table[name]
        print(f"[gate] {name}", flush=True)
        with tempfile.TemporaryDirectory() as scratch:
            done = subprocess.run(argv, cwd=cwd or scratch, env=env,
                                  stdout=subprocess.DEVNULL)
        if done.returncode:
            sys.exit(f"[gate] root {name} exited {done.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR")
    parser.add_argument("--check", metavar="DIR")
    parser.add_argument("--root", action="append", dest="roots")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(roots()))
        return 0
    if args.check:
        out = Path(args.check)
    else:
        out = Path(args.keep or tempfile.mkdtemp(prefix="repro-gate-"))
        out.mkdir(parents=True, exist_ok=True)
        record(args.roots or list(roots()), out)
    table = functions()
    result = verdict(table, read_records(out), ALLOWED)
    print(f"[gate] {len(table)} functions and module bodies, "
          f"{len(result['unrun'])} unrun and unexplained, "
          f"{len(result['allowed_but_ran'])} allowed but ran, "
          f"{len(result['allowed_but_gone'])} allowed but gone")
    for kind, keys in result.items():
        for key in keys:
            print(f"{kind}: {key}")
    return 1 if any(result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
