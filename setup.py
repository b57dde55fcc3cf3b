"""Setuptools entry point.

The evaluation environment has no network and no `wheel` package, so the
PEP 517 editable path is unavailable; this file keeps the legacy
``pip install -e . --no-use-pep517 --no-build-isolation`` path working.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
