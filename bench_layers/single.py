"""One workload, end to end: measure, verify, report."""

from __future__ import annotations

from typing import Any

from .runner import (detail_lines, end_to_end_metrics, measure, say,
                     verify)
from .workloads import make_workload

__all__ = ["run_single"]


def run_single(name: str, seed: int, seconds: float, trace: bool, *,
               trace_dir: str | None = None, **sizes: Any) -> dict[str, Any]:
    """Run workload ``name``, print the report, return the result line:
    ``{"correct", "attempted", "failed", "metrics"}``.

    ``correct`` is false when any answer differs from the oracle or is a
    typed non-answer, when simulated numbers drift between passes, or
    when churn lost or duplicated a tuple.
    """
    workload = make_workload(name, seed, **sizes)
    say(f"== {name} seed={seed} seconds={seconds:g} "
        f"{'traced' if trace else 'untraced'}")
    if trace:
        from .layers import traced_metrics
        m, metrics = traced_metrics(workload, trace_dir)
    else:
        m = measure(workload, seconds)
        metrics = end_to_end_metrics(m)
    queries = m.passes[0].queries
    failures = verify(workload, queries)
    for text in failures[:10]:
        say(f"FAILED {text}")
    if m.drift is not None:
        say(f"DRIFT {m.drift}")
    conserved = m.passes[0].counters.get("tuples_conserved", 1.0) == 1.0
    if not conserved:
        say("FAILED the stores no longer hold exactly the loaded and "
            "inserted tuples after churn")
    for text in detail_lines(m):
        say(text)
    for metric, (value, unit, samples) in metrics.items():
        if samples:  # a traced run skips what this workload does not measure
            say(f"  {metric:<46} {value:>14.6g} {unit:<7} n={samples}")
    say(f"  verified {len(queries) - len(failures)}/{len(queries)} answers "
        f"against the oracle over {len(m.passes)} passes")
    return {"correct": not failures and m.drift is None and conserved,
            "attempted": len(queries), "failed": len(failures),
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit, _) in metrics.items()}}
