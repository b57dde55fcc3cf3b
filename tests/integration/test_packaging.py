"""The package as installed: import surface and version.

``import repro`` must work on the declared dependencies alone
(``pyproject.toml``: numpy) and load nothing else third-party — every
process the repo starts pays for whatever module scope imports (DESIGN.md
section 9, *Start-up*). Both guards run in a fresh interpreter because
this one has already imported pytest, hypothesis and whatever they pull in.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]

_SURFACE = """
import sys
before = set(sys.modules)   # site hooks (.pth files) load before user code
import repro
loaded = {name.partition(".")[0] for name in set(sys.modules) - before
          if getattr(sys.modules[name], "__file__", None)}   # on disk
print(sorted(loaded - set(sys.stdlib_module_names) - {"repro"}))
"""

_FIT_ON_NUMPY_ALONE = """
import sys
sys.modules["scipy"] = None   # importing it now raises ImportError
import numpy as np
from repro import ClusterConfig, SparkerContext
from repro.data import lda_corpus
from repro.ml import LDA
docs, _ = lda_corpus(n_docs=40, vocab_size=30, n_topics=3, doc_length=20,
                     seed=3)
sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
model = LDA(k=3, num_iterations=2, seed=5).fit(
    sc.parallelize(docs, 4), 30)
assert model.topics.shape == (3, 30) and np.isfinite(model.topics).all()
assert len(model.log_likelihoods) == 2
print("fitted")
"""


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_only_declared_third_party_packages():
    assert _fresh_interpreter(_SURFACE) == "['numpy']"


def test_lda_fits_on_numpy_alone():
    assert _fresh_interpreter(_FIT_ON_NUMPY_ALONE) == "fitted"


def test_the_three_version_strings_agree():
    declared = {
        name: re.search(r'^\s*version\s*=\s*"([^"]+)"',
                        (ROOT / name).read_text(), re.MULTILINE).group(1)
        for name in ("pyproject.toml", "setup.py")}
    assert declared == dict.fromkeys(declared, repro.__version__)
