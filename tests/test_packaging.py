"""Packaging metadata: pyproject.toml names the package, its version and
its console script, and declares no runtime dependencies."""

import importlib
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_metadata():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["repro", repro.__version__]
    if sys.version_info < (3, 11):  # no tomllib to read the file with
        return
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
    module, _, name = project["scripts"]["repro"].partition(":")
    assert getattr(importlib.import_module(module), name) \
        is importlib.import_module("repro.cli").main
