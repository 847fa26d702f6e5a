"""The one real clock read under ``src/``, ``benchmarks/`` and ``tools/``.

Simulations run on virtual time (``EventSimulator.now`` and hop counts),
so nothing that executes inside one reads a clock.  Operator-facing
timing does: figure regeneration reports how long each target took, the
scale profile and the benchmark gates time real builds and kernels.
They all call :func:`wallclock`, which keeps every real clock read in
this module (``tests/test_source_invariants.py`` checks that no other
module reads one).
"""

from __future__ import annotations

import time

__all__ = ["wallclock"]


def wallclock() -> float:
    """Monotonic host seconds, for operator-facing timing only."""
    return time.perf_counter()
