"""``python -m bench_layers compare A.json B.json``: gate B against A.

Two runs of the same seed: host metrics may worsen by their
``same_seed_bound`` (a share of A's value); simulated metrics must be
*equal*, because a change that only speeds the simulator leaves them
bit-identical and a protocol change should say so.  Runs of different
seeds are gated by the wider ``bound`` the driver uses.  ``failed_share``
may never grow.  Where the recorded run-to-run spread of a metric is wider
than its bound the verdict is ``unresolved`` rather than ``ok`` or
``regressed`` — unless every run of B reads better than every run of A.
Per-layer metrics (files from ``run --trace``) have no bound and are
listed with their ratio only.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Sequence

from .spec import END_TO_END

__all__ = ["compare_main", "compare_documents", "Row"]

Row = tuple[str, str, float, float, float, str]


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _all_better(a_runs: Sequence[float], b_runs: Sequence[float],
                better: str) -> bool:
    if better == "lower":
        return max(b_runs) < min(a_runs)
    return min(b_runs) > max(a_runs)


def compare_documents(a: dict[str, Any], b: dict[str, Any]) -> list[Row]:
    """One row per workload x metric present in both documents:
    ``(workload, metric, a, b, b / a, verdict)``."""
    same_seed = a.get("seed") == b.get("seed")
    specs = {m.name: m for m in END_TO_END}
    rows: list[Row] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        fa, fb = wa["failed_share"], wb["failed_share"]
        rows.append((name, "failed_share", fa, fb,
                     fb / fa if fa else float(fb == 0) or float("inf"),
                     "ok" if fb <= fa else "regressed"))
        for metric, va in wa["metrics"].items():
            if metric not in wb["metrics"]:
                continue
            vb = wb["metrics"][metric]
            ratio = vb / va if va else float("nan")
            spec = specs.get(metric)
            if spec is None:
                verdict = "-"
            else:
                bound = spec.same_seed_bound if same_seed else spec.bound
                spread = max(wa.get("spread", {}).get(metric, 0.0),
                             wb.get("spread", {}).get(metric, 0.0))
                if spread > bound and not _all_better(
                        wa["runs"][metric], wb["runs"][metric], spec.better):
                    verdict = "unresolved"
                else:
                    verdict = "regressed" if _worse_by(
                        va, vb, spec.better) > bound else "ok"
            rows.append((name, metric, va, vb, ratio, verdict))
    return rows


def compare_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench_layers compare",
        description="Gate run B against run A (both from `run --out`). "
                    "Exit 0: all ok; 1: something regressed; 2: nothing "
                    "regressed but something is unresolved.")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    if a.get("seed") != b.get("seed"):
        print(f"seeds differ ({a.get('seed')} vs {b.get('seed')}): "
              "simulated metrics are gated by their bounds, not equality")
    rows = compare_documents(a, b)
    print(f"{'workload':<18} {'metric':<46} {'A':>13} {'B':>13} "
          f"{'B/A':>8}  verdict")
    for workload, metric, va, vb, ratio, verdict in rows:
        print(f"{workload:<18} {metric:<46} {va:>13.6g} {vb:>13.6g} "
              f"{ratio:>8.4f}  {verdict}")
    verdicts = {row[5] for row in rows}
    for verdict in ("regressed", "unresolved"):
        count = sum(1 for row in rows if row[5] == verdict)
        if count:
            print(f"{count} {verdict} (ratios are B over A; bounds are in "
                  "bench_layers/spec.py)")
    if "regressed" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0
