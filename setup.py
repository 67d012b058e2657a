"""Setup shim for environments whose pip/setuptools predate PEP 660
editable installs; the package metadata lives in pyproject.toml."""

from setuptools import setup

setup()
