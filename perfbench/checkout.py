"""Locate the checkout the benchmark runs in and make its source importable.

The benchmark always measures the streammatch sources of its own checkout
(`<root>/src/streammatch`), never an installed copy, so a missing source
tree is an error rather than a silent fallback.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def use_checkout_source() -> None:
    """Put `<root>/src` first on sys.path; exit with code 1 if it is absent
    or if streammatch would be imported from anywhere else."""
    src = ROOT / "src"
    if not (src / "streammatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no streammatch sources under {src}")
    sys.path.insert(0, str(src))
    import streammatch

    if Path(streammatch.__file__).resolve().parent != (src / "streammatch").resolve():
        sys.exit(f"perfbench: streammatch imported from {streammatch.__file__}, not {src}")
