"""The switch-off diff: does any root observe a mechanism?

Switch a mechanism off with a patch (make its predicate constant, its
branch unreachable), then run every root of :mod:`gate` on a copy of this
checkout with and without the patch and compare what the roots report.
Run from the root of a checkout::

    python tests/execution/switch_off.py off.patch

The outputs compared, per root of ``gate.roots()``:

* an example: its exit status and its standard output;
* the figure suite: its exit status and every file it writes under
  ``benchmarks/results/``;
* a ledger workload, at each seed of :data:`SEEDS`: every ``virt*``
  metric of ``--trace 0`` and ``--trace 1``, every ``count.*`` of
  ``--trace 1``, and whether its checks passed. ``ledger:micro`` reports
  host rates only and is not run;
* the recorded streams the two stream-digest tests hash
  (:data:`STREAMS`): their SHA-256 and length, taken on this host, so the
  comparison holds on any host fingerprint.

Each output that differs is printed with the root that produced it; the
exit status is 0 only when none differs. The two trees run side by side,
each root in a fresh interpreter; a whole run takes about ten minutes on a
2-CPU host.
"""

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from gate import LEDGER_WORKLOADS, ROOT, ledger, roots

SEEDS = (7, 11, 2026)
#: the streams of tests/obs/test_stream_digest.py and
#: tests/service/test_stream_digest.py, hashed as those tests hash them
STREAMS = """
import hashlib, json
from tests.obs.test_stream_digest import recorded_stream
from tests.service.conftest import open_loop_session
from repro.obs import RecordingListener

def digest(events):
    blob = "\\n".join(json.dumps(e.to_record(), sort_keys=True)
                     for e in events)
    return f"{hashlib.sha256(blob.encode()).hexdigest()} {len(events)} events"

print("tests/obs/test_stream_digest.py", digest(recorded_stream()))
recorder = RecordingListener()
open_loop_session(listener=recorder)
print("tests/service/test_stream_digest.py", digest(recorder.events))
"""
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "*.egg-info")


def run(argv, cwd, tree: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        return subprocess.run(argv, cwd=cwd or scratch, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)


def ledger_outputs(tree: Path, name: str, seed: int, trace: int) -> dict:
    done = run(ledger(tree, "--workload", name, "--seed", str(seed),
                      "--seconds", "0", "--trace", str(trace)), tree, tree)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"exit": str(done.returncode)}
    outputs = {"correct": str(result["correct"])}
    for metric, entry in result["metrics"].items():
        if metric.startswith("virt") or (trace
                                         and metric.startswith("count.")):
            outputs[metric] = repr(entry["value"])
    return outputs


def observe(tree: Path) -> dict:
    """``(root, output) -> value`` for every root run on ``tree``."""
    seen = {}
    for name, (argv, cwd) in roots(tree).items():
        print(f"[switch-off] {tree.name}: {name}", flush=True)
        if name.startswith("example:"):
            done = run(argv, cwd, tree)
            seen[name, "exit"] = str(done.returncode)
            seen[name, "stdout"] = done.stdout
        elif name == "figures":
            seen[name, "exit"] = str(run(argv, cwd, tree).returncode)
            for path in sorted((tree / "benchmarks" / "results").glob("*")):
                seen[name, f"benchmarks/results/{path.name}"] = (
                    path.read_text(encoding="utf-8"))
        elif name == "ledger:micro":
            continue
        elif name.split(":", 1)[1] in LEDGER_WORKLOADS:
            workload = name.split(":", 1)[1]
            for seed in SEEDS:
                for trace in (0, 1):
                    root = f"{name} --seed {seed} --trace {trace}"
                    for output, value in ledger_outputs(
                            tree, workload, seed, trace).items():
                        seen[root, output] = value
        else:
            sys.exit(f"[switch-off] no rule for gate root {name!r}")
    done = run([sys.executable, "-c", STREAMS], tree, tree)
    seen["stream digests", "exit"] = str(done.returncode)
    for line in done.stdout.splitlines():
        test, value = line.split(" ", 1)
        seen[f"stream:{test}", "sha256"] = value
    return seen


def describe(before: str, after: str) -> str:
    if "\n" not in before + after:
        return f"{before} -> {after}"
    return "\n".join(list(difflib.unified_diff(
        before.splitlines(), after.splitlines(), "before", "after",
        lineterm=""))[:40])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("patch", help="the switch-off, a diff applied with "
                                      "git apply at the checkout's root")
    args = parser.parse_args(argv)
    patch = Path(args.patch).resolve()
    with tempfile.TemporaryDirectory(prefix="repro-switch-off-") as scratch:
        trees = [Path(scratch) / "before", Path(scratch) / "after"]
        for tree in trees:
            shutil.copytree(ROOT, tree, ignore=_IGNORE)
        subprocess.run(["git", "apply", str(patch)], cwd=trees[1],
                       check=True)
        with ThreadPoolExecutor(len(trees)) as pool:
            before, after = pool.map(observe, trees)
    differ = sorted(key for key in before.keys() | after.keys()
                    if before.get(key) != after.get(key))
    for root, output in differ:
        print(f"differs at {root}: {output}\n"
              + describe(before.get((root, output), "<absent>"),
                         after.get((root, output), "<absent>")))
    print(f"[switch-off] {len(before)} outputs of {len(roots())} roots, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
