"""Every module under ``src/repro/`` is on a workload, an exhibit, an
example or the CLI, and so is every public method of the engine's two
user-facing classes.

A static walk over ``import`` statements from the roots that are not
tests — ``benchmarks/`` (the ledger, the paper's figures and tables),
``examples/`` and the ``python -m repro.obs`` entry point — following each
imported name through package ``__init__`` re-exports to the module that
defines it. A re-export line is not a use: ``repro/ml/__init__.py`` naming
a class keeps nothing alive, a script that imports the class does. What
only ``tests/`` and the module's own package ``__init__`` reach has no
caller to break and no number to move, and is deleted or put on a
workload (ROADMAP, *quality of design*).

The same rule holds for the methods of :class:`~repro.rdd.RDD` and
:class:`~repro.rdd.SparkerContext`: a public one must be named as an
attribute (``x.name``) in some file under ``src/``, ``benchmarks/`` or
``examples/`` other than the one defining it. The scan is by *name*, not
by type: ``", ".join``, ``dict.keys``, ``np.take`` or
``SparseAccumulator.coalesce`` count as uses of a method called ``join``,
``keys``, ``take`` or ``coalesce``. Such a collision hides an uncalled
method: ``RDD.join``, ``keys``, ``take``, ``coalesce``, ``fold``, ``sum``
and ``reduce`` all passed this scan with no caller, and were found and
deleted by hand.
"""

import ast
from pathlib import Path

from repro.rdd import RDD, SparkerContext

ROOT = Path(__file__).resolve().parents[2]

#: unreached on purpose, with the reason; the test fails when an entry
#: becomes reachable, so the list cannot outlive its reasons
ALLOWED = {
    # The format the paper's datasets (Table 2) are distributed in. Their
    # files are not in the repository, so every root runs on the synthetic
    # surrogates of data/registry.py; a user with the real files needs it.
    "repro.data.libsvm",
}

#: public RDD / SparkerContext methods no root calls, with the reason they
#: stay; like ALLOWED, an entry that gains a caller fails the test
ALLOWED_METHODS = {}


def modules_under(src):
    """Dotted name -> file, for every module and package below ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


def imported_names(path, module):
    """``(base module, name or None, name it is bound to)`` for each import
    in one file; ``module`` is the file's own dotted name (``None`` outside
    ``src``, where nothing is relative)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".")
                if path.name != "__init__.py":
                    package = package[:-1]
                package = package[:len(package) - (node.level - 1)]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def defining_module(modules, base, name):
    """The module a ``from base import name`` lands in: a submodule, the
    plain module ``base`` itself, or wherever the package's ``__init__``
    took the name from."""
    if name is None or base not in modules:
        return base
    if f"{base}.{name}" in modules:
        return f"{base}.{name}"
    if modules[base].name == "__init__.py":
        for origin, original, bound in imported_names(modules[base], base):
            if bound == name and original is not None:
                return defining_module(modules, origin, original)
    return base


def unreached(src, roots):
    """Modules below ``src`` (packages aside) that no root file reaches."""
    modules = modules_under(src)
    by_path = {path: name for name, path in modules.items()}
    roots = set(roots)
    seen, todo = set(), list(roots)
    while todo:
        path = todo.pop()
        for base, name, _ in imported_names(path, by_path.get(path)):
            target = defining_module(modules, base, name)
            if target in modules and target not in seen:
                seen.add(target)
                # an __init__ is all re-exports: reaching the package is
                # reaching none of them
                if modules[target].name != "__init__.py":
                    todo.append(modules[target])
    return {name for name, path in modules.items()
            if path.name != "__init__.py" and path not in roots} - seen


def test_every_module_is_reached_from_a_root_that_is_not_a_test():
    src = ROOT / "src"
    roots = [path for top in ("benchmarks", "examples")
             for path in sorted((ROOT / top).rglob("*.py"))]
    roots += sorted(src.rglob("__main__.py"))
    assert unreached(src, roots) == ALLOWED


def test_the_ledger_is_the_only_measurement_path():
    """``benchmarks/`` holds the ledger, the paper's exhibits (``test_*.py``
    and their ``results/``) and nothing else, and no ``BENCH_*.json`` sits
    at the root: a number is measured by the ledger or asserted by a
    test, never by a second script with an artifact of its own."""
    top = {path.name for path in (ROOT / "benchmarks").iterdir()
           if path.name != "__pycache__"}
    assert {"ledger", "results", "conftest.py"} <= top
    assert {name for name in top - {"ledger", "results", "conftest.py"}
            if not (name.startswith("test_") and name.endswith(".py"))} == set()
    assert list(ROOT.glob("BENCH_*.json")) == []


def test_a_reexport_alone_does_not_reach_a_module(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .sub import used, idle\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from .a import used\nfrom .b import idle\nfrom .c import helper\n")
    (pkg / "sub" / "a.py").write_text(
        "def used():\n    from .c import helper\n    return helper\n")
    (pkg / "sub" / "b.py").write_text("from . import a\nidle = a.used\n")
    (pkg / "sub" / "c.py").write_text("helper = 1\n")
    script = tmp_path / "run.py"
    script.write_text("from pkg import used\n")
    # a.py through two re-exports, c.py through a.py's own import; b.py is
    # named by both __init__ files and by nothing that runs
    assert unreached(tmp_path / "src", [script]) == {"pkg.sub.b"}
    script.write_text("import pkg.sub.b\n")
    assert unreached(tmp_path / "src", [script]) == set()


def attribute_names(paths):
    """Every name used as an attribute (``x.name``) in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def public_methods(cls):
    """Public functions and properties defined on ``cls`` itself."""
    return {name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (callable(value) or isinstance(value, property))}


def uncalled_methods(classes, roots):
    """``Class.method`` for each public method of ``classes`` (class ->
    its defining file) that no root file other than that one names."""
    found = set()
    for cls, home in classes.items():
        used = attribute_names(path for path in roots if path != home)
        found |= {f"{cls.__name__}.{name}"
                  for name in public_methods(cls) - used}
    return found


def test_every_public_engine_method_is_called_from_a_root_that_is_not_a_test():
    roots = [path for top in ("src", "benchmarks", "examples")
             for path in sorted((ROOT / top).rglob("*.py"))]
    rdd_dir = ROOT / "src" / "repro" / "rdd"
    classes = {RDD: rdd_dir / "rdd.py", SparkerContext: rdd_dir / "context.py"}
    assert uncalled_methods(classes, roots) == set(ALLOWED_METHODS)


def test_a_method_named_only_in_its_own_file_or_in_tests_is_uncalled(tmp_path):
    class Engine:
        flag = True

        def used(self):
            return self.idle()

        def idle(self):
            return 1

        @property
        def state(self):
            return 0

    home = tmp_path / "engine.py"
    home.write_text("x.idle()\n")
    caller = tmp_path / "run.py"
    caller.write_text("engine.used()\n")
    assert uncalled_methods({Engine: home}, [home, caller]) == {
        "Engine.idle", "Engine.state"}
    caller.write_text("engine.used(); print(engine.state, engine.idle)\n")
    assert uncalled_methods({Engine: home}, [home, caller]) == set()
