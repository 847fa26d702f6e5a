"""The one place this package reads a clock."""

from __future__ import annotations

import time


def _wallclock() -> float:
    """Monotonic host seconds.

    ``bench_layers`` measures real host time, so it needs a real clock;
    every read goes through this helper (the shape ripplelint's RPL002
    allowlists), which keeps the package's clock reads greppable and in
    one place.
    """
    return time.perf_counter()


def today() -> str:
    """The local date, ``YYYY-MM-DD``, for rows of ``history.jsonl``."""
    return time.strftime("%Y-%m-%d")
