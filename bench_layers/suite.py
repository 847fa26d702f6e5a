"""``python -m bench_layers run``: every workload, one child process each.

Children run one at a time with ``PYTHONHASHSEED=0`` and are exactly the
single-workload command the driver uses, so a suite run and a driver run
measure the same thing.  The collected results are printed as one JSON
document (also written to ``--out``); ``--record`` appends a dated row
to ``history.jsonl`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Sequence

from ._clock import today
from .estimator import quartile_spread
from .runner import say
from .spec import DEFAULT_SEED, PER_LAYER, RUN_SECONDS
from .workloads import WORKLOADS

__all__ = ["run_suite", "HISTORY", "BASELINE"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
HISTORY = os.path.join(_HERE, "history.jsonl")
BASELINE = os.path.join(_HERE, "baseline.json")


def _child(workload: str, seed: int, seconds: float, trace: bool
           ) -> dict[str, Any] | None:
    """Run one workload in a child; echo its report, return its JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench_layers", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=_ROOT, env=env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    last = ""
    with proc.stdout:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line
            else:
                say(line)
    code = proc.wait()
    if not last:
        say(f"  {workload}: child exited {code} without a result")
        return None
    return json.loads(last)


def _spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the quartile distance
    from four runs up, the full range below that."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        return quartile_spread(values)
    median = statistics.median(values)
    return (max(values) - min(values)) / median if median else 0.0


def run_suite(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench_layers run",
        description="Run the workloads, one child process each.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true",
                        help="the traced run: per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; medians are reported and "
                             "the spread between runs is recorded")
    parser.add_argument("--out", help="also write the JSON here")
    parser.add_argument("--record", action="store_true",
                        help="append a dated row to history.jsonl")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    document: dict[str, Any] = {
        "benchmark": "bench_layers", "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "repeat": args.repeat, "workloads": {}}
    ok = True
    for name in names:
        lines = [line for line in (
            _child(name, args.seed, args.seconds, args.trace)
            for _ in range(args.repeat)) if line is not None]
        if len(lines) < args.repeat:
            ok = False
        if not lines:
            continue
        # A traced result line carries every per-layer name (the driver's
        # contract); the document keeps those this workload measures.
        unmeasured = {m.name for m in PER_LAYER if name not in m.measured_on}
        units = {k: v["unit"] for k, v in lines[0]["metrics"].items()
                 if k not in unmeasured}
        runs = {k: [line["metrics"][k]["value"] for line in lines]
                for k in units}
        attempted = sum(line["attempted"] for line in lines)
        failed = sum(line["failed"] for line in lines)
        correct = all(line["correct"] for line in lines)
        ok = ok and correct
        entry = document["workloads"][name] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "units": units,
            "metrics": {k: statistics.median(v) for k, v in runs.items()},
        }
        if args.repeat > 1:
            entry["runs"] = runs
            entry["spread"] = {k: _spread(v) for k, v in runs.items()}
        say(f"  {name}: failed_share {failed / attempted:g} "
            f"({failed}/{attempted})")
    text = json.dumps(document, indent=2)
    print(text, flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.record:
        row = {"date": today(), "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace,
               "workloads": {name: entry["metrics"] for name, entry
                             in document["workloads"].items()}}
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(row) + "\n")
    return 0 if ok else 1
