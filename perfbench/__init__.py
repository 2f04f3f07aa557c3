"""End-to-end and per-layer benchmark of the connectivity library.

Run from the repository root::

    python3 perfbench/run.py --workload kron-batch --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric map.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
REPO_ROOT = Path(__file__).resolve().parent.parent
#: Where the library's sources live; the benchmark imports them from here.
SOURCE_DIR = REPO_ROOT / "src"


def ensure_library_importable() -> bool:
    """Put ``src/`` on ``sys.path``; False when the sources are missing."""
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        return False
    path = str(SOURCE_DIR)
    if path not in sys.path:
        sys.path.insert(0, path)
    return True
