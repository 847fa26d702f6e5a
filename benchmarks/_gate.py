"""Shared plumbing for the recorded-baseline benchmark gates.

``bench_kernels``, ``bench_churn``, and ``bench_load`` all follow the
same CLI contract — ``--smoke`` for the reduced CI configuration,
``--record`` to refresh the committed baseline, ``--compare PATH``
plus ``--tolerance`` to gate a fresh run against it, ``--out`` to keep
the fresh JSON — and the same conventions around it: progress goes to
stderr so stdout stays parseable, baselines are pretty-printed JSON
with a trailing newline, and a failed gate prints one ``REGRESSION``
line per finding before exiting non-zero.  This module is the single
implementation of that contract; each driver contributes only its
sweep and its ``compare(fresh, baseline, tolerance)`` policy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

import numpy as np

__all__ = ["add_gate_arguments", "compare_rss", "gate", "log", "peak_rss_mib",
           "read_json", "seeded_rng", "write_json"]


def log(msg: str) -> None:
    """Progress/diagnostic line on stderr; stdout stays machine-readable."""
    print(msg, file=sys.stderr)


def seeded_rng(seed: int) -> np.random.Generator:
    """The benchmark suite's one generator constructor: every draw in a
    gate driver flows from an explicit seed."""
    return np.random.default_rng(seed)


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB.

    Backed by ``getrusage(RUSAGE_SELF).ru_maxrss`` — a high-water mark,
    so per-row deltas are meaningful only for the rows that *raise* the
    peak (record rows largest-last, or treat the column as cumulative).
    Linux reports KiB, macOS bytes; normalized here.  Returns ``0.0``
    where ``resource`` is unavailable (non-POSIX), which both recording
    and comparison treat as "column not measured".
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only fallback
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def compare_rss(fresh_mib: float, baseline_mib: float, *, label: str,
                tolerance: float) -> list[str]:
    """Banded peak-memory comparison, shared by every gate's policy.

    Memory regressions only (a *smaller* footprint is always a pass),
    with a relative band: fails when the fresh peak exceeds the baseline
    by more than ``tolerance`` (e.g. ``0.5`` allows +50%).  Rows measured
    as ``0.0`` on either side — platform without ``resource`` — are
    skipped rather than failed, so baselines stay portable.
    """
    if not fresh_mib or not baseline_mib:
        return []
    limit = baseline_mib * (1.0 + tolerance)
    if fresh_mib > limit:
        return [f"{label}: peak RSS {fresh_mib:.1f} MiB exceeds "
                f"baseline {baseline_mib:.1f} MiB "
                f"(+{tolerance:.0%} band = {limit:.1f} MiB)"]
    return []


def add_gate_arguments(parser: argparse.ArgumentParser, *,
                       baseline_path: str, default_tolerance: float,
                       tolerance_help: str) -> None:
    """Install the shared ``--smoke/--record/--compare/--tolerance/--out``
    flags; per-driver flags are added by the caller afterwards."""
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (the CI gate configuration)")
    parser.add_argument("--record", action="store_true",
                        help=f"write the recorded baseline {baseline_path}")
    parser.add_argument("--compare", type=str, default=None, metavar="PATH",
                        help="gate the fresh run against this baseline")
    parser.add_argument("--tolerance", type=float, default=default_tolerance,
                        help=tolerance_help)
    parser.add_argument("--out", type=str, default=None,
                        help="write the fresh results JSON here")


def write_json(path: str, payload: Any, *, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def gate(fresh: Any, baseline_path: str,
         compare: Callable[[Any, Any, float], list[str]],
         tolerance: float, *,
         passed: str | Callable[[Any], str]) -> int:
    """Run one compare gate and report it.

    Loads the baseline, applies the driver's ``compare`` policy, prints
    each failure as a ``REGRESSION`` line, and returns the process exit
    code.  ``passed`` is the success message (or a callable receiving
    the loaded baseline, for messages that count gated scenarios).
    """
    baseline = read_json(baseline_path)
    failures = compare(fresh, baseline, tolerance)
    if failures:
        for failure in failures:
            log(f"REGRESSION {failure}")
        return 1
    log(passed(baseline) if callable(passed) else passed)
    return 0
