"""Locate the checkout the benchmark runs in and import rainbownum from it.

The benchmark measures the source tree it sits in, never an installed copy:
``use_src`` puts ``<checkout>/src`` first on ``sys.path`` and refuses to go on
when that tree holds no ``rainbownum`` package.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"


def use_src() -> None:
    """Import rainbownum from this checkout's src/, or exit with status 2."""
    package = SRC / "rainbownum"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no rainbownum package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rainbownum

    if Path(rainbownum.__file__).resolve().parent != package:
        sys.stderr.write(f"perfbench: rainbownum was imported from {rainbownum.__file__}\n")
        raise SystemExit(2)


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory under perfbench/_work, removed afterwards."""
    path = WORK / name
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
