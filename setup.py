"""Setuptools entry point for the ``repro`` package (src layout).

``pip install .`` installs the library from ``src/``; it has no runtime
dependencies.  The version is read from ``repro.__version__`` without
importing the package.  Test and CI tooling is in ``requirements-dev.txt``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Component middleware for non-repudiable service interactions",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
