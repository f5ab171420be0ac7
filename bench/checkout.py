"""Locate the tsu11 sources of the checkout the benchmark lives in.

The benchmark always measures the package under ``<checkout>/src``, never
an installed copy, so a result belongs to the sources next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    """The checkout holds no ``src/tsu11`` package."""


def use_checkout_sources() -> Path:
    """Put ``<checkout>/src`` first on ``sys.path`` and import tsu11 from it."""
    if not (SRC / "tsu11" / "__init__.py").is_file():
        raise MissingSources(f"no tsu11 package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tsu11

    where = Path(tsu11.__file__).resolve()
    if SRC not in where.parents:
        raise MissingSources(f"tsu11 was imported from {where}, not from {SRC}")
    return SRC
