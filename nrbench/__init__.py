"""nrbench -- the repository's reference benchmark.

End-to-end and per-layer cost of non-repudiable interaction, measured from
outside the program through its public functions.  See ``README.md`` beside
this file; ``python3 -m nrbench --help`` lists the commands.
"""

from __future__ import annotations

import os
import sys

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE_DIR)
#: Everything a run writes (temporary stores, traces, results) lands here.
OUT_DIR = os.path.join(PACKAGE_DIR, "out")


def add_src_to_path() -> None:
    """Make the program under test importable from its source tree.

    The benchmark lives beside ``src/`` and is run from a plain checkout, so
    it finds ``repro`` relative to its own location rather than relying on
    ``PYTHONPATH`` or an installed copy.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(
            f"nrbench: no program to measure: {source}/repro does not exist"
        )
    if source not in sys.path:
        sys.path.insert(0, source)
