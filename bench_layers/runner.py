"""Run one workload: set-ups, passes, verification, end-to-end metrics."""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ._clock import _wallclock
from .estimator import (highest_percentile, per_op_minima, percentile,
                        quartile_spread)
from .oracle import skyline_oracle, topk_oracle
from .tracing import Recorder
from .workloads import PassResult, Query, Workload

__all__ = ["Measurement", "measure", "verify", "end_to_end_metrics",
           "detail_lines", "timed_setup", "one_pass", "drift_between", "say"]

#: Full set-ups timed before the passes (cold workloads add one per pass).
SETUPS = 5
MIN_PASSES = 2
MAX_PASSES = 12


def say(text: str) -> None:
    """Human-readable progress; the last stdout line stays the JSON."""
    print(text, flush=True)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    workload: Workload
    setup_seconds: list[float] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)
    #: Set when simulated numbers or answers differ between passes.
    drift: str | None = None


def timed_setup(workload: Workload, into: list[float],
                rec: Recorder | None = None) -> None:
    rec = rec or Recorder()
    _, seconds = rec.call("setup", None, workload.setup, rec)
    into.append(seconds)


def one_pass(workload: Workload, rec: Recorder) -> tuple[PassResult, float]:
    gc.collect()
    start = _wallclock()
    result = workload.run_pass(rec)
    return result, _wallclock() - start


def drift_between(first: PassResult, other: PassResult, label: str
                  ) -> str | None:
    """Name the first op whose simulated cost or answer moved."""
    if len(first.queries) != len(other.queries):
        return f"{label}: {len(other.queries)} answers, first pass had " \
               f"{len(first.queries)}"
    for a, b in zip(first.queries, other.queries):
        if a.sim != b.sim:
            return f"{label}: op {b.op} ({b.what}) simulated " \
                   f"(hops, peers, messages, tuples) {b.sim} != {a.sim}"
        if a.answer != b.answer or a.failure != b.failure:
            return f"{label}: op {b.op} ({b.what}) answer changed"
    if first.counters != other.counters:
        moved = sorted(k for k in first.counters
                       if first.counters[k] != other.counters.get(k))
        return f"{label}: layer counters moved: {', '.join(moved)}"
    return None


def measure(workload: Workload, seconds: float, *,
            setups: int = SETUPS) -> Measurement:
    """Time ``setups`` builds, then passes for about ``seconds`` seconds.

    All passes run the same op list, so the number of passes that fit
    only changes how many samples each per-op minimum is taken over.
    """
    m = Measurement(workload)
    # Workloads rebuilt before every pass add a set-up sample per pass.
    for _ in range(min(setups, 3) if workload.rebuild_per_pass else setups):
        timed_setup(workload, m.setup_seconds)
    rec = Recorder()
    reference: PassResult | None = None
    if workload.warm:
        workload.begin_pass()
        reference, _ = one_pass(workload, rec)
    spent = 0.0
    while len(m.passes) < MAX_PASSES:
        if len(m.passes) >= MIN_PASSES and \
                spent + statistics.median(m.pass_walls) > seconds:
            break
        if workload.rebuild_per_pass:
            timed_setup(workload, m.setup_seconds)
        workload.begin_pass()
        result, wall = one_pass(workload, rec)
        spent += wall
        if reference is None:
            reference = result
        elif m.drift is None:
            m.drift = drift_between(reference, result,
                                    f"pass {len(m.passes)}")
        # Only the first pass keeps its answers (the others were just
        # checked equal); this bounds memory on the serving workloads.
        if result is not reference:
            result.queries = []
        m.passes.append(result)
        m.pass_walls.append(wall)
    m.passes[0].queries = reference.queries
    return m


def verify(workload: Workload, queries: Sequence[Query]) -> list[str]:
    """Compare every answer with the centralized oracle; returns one line
    per failed op (typed non-answers count as failures)."""
    union = workload.union()
    memo: dict[tuple, Any] = {}
    failures = []
    for q in queries:
        if q.failure is not None:
            failures.append(f"op {q.op} ({q.what}): {q.failure}")
            continue
        rows = union if q.rows is None else union[:q.rows]
        key = (q.kind, id(q.fn), q.k, q.constraint, len(rows))
        if key not in memo:
            memo[key] = topk_oracle(rows, q.fn, q.k) if q.kind == "topk" \
                else skyline_oracle(rows, q.constraint)
        if q.answer != memo[key]:
            failures.append(f"op {q.op} ({q.what}): answer != oracle")
    return failures


def primary_kind(result: PassResult) -> str:
    """The workload's most frequent answering op kind; the latency
    metrics are taken over it, so they never sit on the boundary between
    two kinds of query with different costs."""
    counts: dict[str, int] = {}
    for kind, n in zip(result.op_kinds, result.op_answers):
        if n:
            counts[kind] = counts.get(kind, 0) + 1
    return max(counts, key=lambda kind: counts[kind])


def end_to_end_metrics(m: Measurement) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` from an untraced measurement."""
    first = m.passes[0]
    minima = per_op_minima([p.op_seconds for p in m.passes])
    answers = sum(first.op_answers)
    primary = primary_kind(first)
    per_query_ms = [1e3 * t / n for kind, t, n in zip(
        first.op_kinds, minima, first.op_answers) if kind == primary]
    tail = min(m.workload.tail, highest_percentile(len(per_query_ms)))
    sims = np.asarray([q.sim for q in first.queries], dtype=float)
    means = sims.mean(axis=0)
    n = len(first.queries)
    return {
        "setup_s": (statistics.median(m.setup_seconds), "s",
                    len(m.setup_seconds)),
        "queries_per_s": (answers / sum(minima), "1/s", answers),
        "query_ms_p50": (percentile(per_query_ms, 0.50), "ms",
                         len(per_query_ms)),
        "query_ms_tail": (percentile(per_query_ms, tail), "ms",
                          len(per_query_ms)),
        "peak_rss_mib": (peak_rss_mib(), "MiB", 1),
        "hops_per_query": (float(means[0]), "hops", n),
        "peers_per_query": (float(means[1]), "peers", n),
        "messages_per_query": (float(means[2]), "msgs", n),
        "tuples_per_query": (float(means[3]), "tuples", n),
    }


def detail_lines(m: Measurement) -> list[str]:
    """Per-op-kind host times and the pass-wall spread, for the reader."""
    first = m.passes[0]
    minima = per_op_minima([p.op_seconds for p in m.passes])
    lines = []
    by_kind: dict[str, list[float]] = {}
    for kind, t, n in zip(first.op_kinds, minima, first.op_answers):
        by_kind.setdefault(kind, []).append(1e3 * t / max(1, n))
    for kind, values in by_kind.items():
        line = f"  {kind:<8} n={len(values):<5} p50 " \
               f"{percentile(values, 0.5):.4f} ms"
        tail = highest_percentile(len(values))
        if tail < 1.0:
            line += f"  p{100 * tail:.0f} {percentile(values, tail):.4f} ms"
        lines.append(line + f"  max {max(values):.4f} ms")
    walls = m.pass_walls
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        lines.append(f"  pass wall n={len(walls)} quartiles "
                     f"{q1:.3f} / {q2:.3f} / {q3:.3f} s "
                     f"(spread {quartile_spread(walls):.1%})")
    return lines
