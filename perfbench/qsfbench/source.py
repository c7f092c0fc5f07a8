"""Locating and importing the qsecfan sources of the checkout under test."""

from __future__ import annotations

import importlib
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "data", "golden.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class SourceMissing(RuntimeError):
    pass


def import_qsecfan() -> float:
    """Import qsecfan from ``<checkout>/src`` and return the seconds taken.

    Refuses any other copy of the package, so a run can never measure an
    installed version instead of the checkout.
    """
    pkg = os.path.join(SRC, "qsecfan", "__init__.py")
    if not os.path.isfile(pkg):
        raise SourceMissing(f"no qsecfan sources at {os.path.relpath(pkg, ROOT)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    mod = importlib.import_module("qsecfan")
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(mod.__file__)) != os.path.join(SRC, "qsecfan"):
        raise SourceMissing(f"qsecfan was imported from {mod.__file__}, not from the checkout")
    return elapsed
