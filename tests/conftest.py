"""Hypothesis profiles for the whole suite.

``tier1`` (the default) derandomizes every property test: each test draws
its examples from a seed fixed by the test itself and no example database
is read, so two runs of one commit run the same examples, and a failure
replays. ``fuzz`` draws fresh random examples on every run at the same
per-test counts; CI runs it as a separate step
(``pytest --hypothesis-profile=fuzz``).
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")
