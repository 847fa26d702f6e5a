"""Argument parsing and the three entry points."""

from __future__ import annotations

import argparse
import json
from typing import Sequence

from .spec import DEFAULT_SEED, RUN_SECONDS
from .workloads import WORKLOADS

__all__ = ["main"]


def _single(argv: Sequence[str]) -> int:
    """Contract mode: one workload, the result as the last stdout line."""
    from .single import run_single

    parser = argparse.ArgumentParser(
        prog="python -m bench_layers",
        description="Run one workload and print one JSON result line.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    line = run_single(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "run":
        from .suite import run_suite
        return run_suite(argv[1:])
    if argv and argv[0] == "compare":
        from .compare import compare_main
        return compare_main(argv[1:])
    return _single(argv)
