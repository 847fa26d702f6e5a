"""Terminal critical-path summary of a recorded query trace.

Usage::

    python -m repro.obs.traceview trace.jsonl

reads a JSONL archive written by :func:`repro.obs.export.write_jsonl`
(or by the ``--trace-out`` flag of ``repro.experiments`` /
``benchmarks.bench_churn``) and prints the replayed message totals plus
the hop-by-hop critical path — the chain of peers whose sequential
processing determined the query's latency.
"""

from __future__ import annotations

import argparse
import sys
from typing import Hashable, Sequence

from .export import load_jsonl
from .trace import QueryTrace, critical_path, replay

__all__ = ["main", "render"]


def render(trace: QueryTrace) -> str:
    """A human-readable multi-line summary of ``trace``."""
    replayed = replay(trace)
    roots = trace.roots()
    lines = [
        f"trace: {len(trace.spans)} spans, {len(trace.events)} events, "
        f"{len(roots)} root(s)",
        f"messages: {replayed.forward_messages} forwards, "
        f"{replayed.response_messages} responses, "
        f"{replayed.answer_messages} answers "
        f"(total {replayed.total_messages})",
        f"replayed latency: {replayed.latency} hop(s)",
    ]
    path = critical_path(trace)
    if path:
        root = path[0]
        while root.parent_id is not None:
            parent = trace.get_span(root.parent_id)
            if parent is None:
                break
            root = parent
        lines.append(f"critical path ({len(path)} hop(s), "
                     f"root span #{root.span_id}):")
        for span in path:
            t = span.begin - root.begin
            size = span.attrs.get("state_size")
            carried = "-" if size is None else str(size)
            region = span.region or "-"
            if len(region) > 48:
                region = region[:45] + "..."
            lines.append(f"  t={t:<4d} peer {span.peer!r:<12} "
                         f"state={carried:<6} region={region}")
    else:
        lines.append("critical path: (empty trace)")
    fanout: dict[Hashable, int] = {}
    for event in trace.events:
        if event.kind == "forward" and event.span_id:
            origin = trace.get_span(event.span_id)
            if origin is not None:
                fanout[origin.peer] = fanout.get(origin.peer, 0) + 1
    sizes = [float(span.attrs["state_size"]) for span in trace.spans
             if span.kind == "process" and "state_size" in span.attrs]
    for label, values, digits in (
            ("fan-out per peer", [float(n) for n in fanout.values()], 2),
            ("state size per hop", sizes, 1)):
        mean = sum(values) / len(values) if values else 0.0
        lines.append(f"{label}: n={len(values)} mean={mean:.{digits}f} "
                     f"max={max(values, default=0):g}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.traceview",
        description="Summarize a recorded RIPPLE query trace (JSONL).")
    parser.add_argument("trace", help="path to a trace .jsonl archive")
    args = parser.parse_args(argv)
    try:
        trace = load_jsonl(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    try:
        print(render(trace))
    except BrokenPipeError:  # piped into head/less that closed early
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
