"""Locate the checkout and put its ``src`` and ``tests`` on ``sys.path``.

The benchmark measures the ``braidalg`` sources of the checkout it sits in,
never an installed copy, so a checkout without ``src/braidalg`` is an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
WORKLOADS = ("graded-primitives", "build-verify", "small-structures")


class MissingSources(RuntimeError):
    pass


def use_checkout() -> None:
    for need in (SRC / "braidalg" / "__init__.py", TESTS / "oracles.py"):
        if not need.is_file():
            raise MissingSources(f"{need.relative_to(ROOT)} not found under {ROOT}")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
