"""Hop-level tracing of one simulated RIPPLE query.

The simulation engines report *aggregate* :class:`~repro.net.context.QueryStats`
counters; this module records the *structure* behind them.  A
:class:`TraceSink` receives three kinds of signals while a query runs:

* **spans** — intervals with parent causality.  A ``process`` span covers
  one peer's execution of Algorithm 3 (a :class:`~repro.core.framework._Visit`,
  whichever driver schedules it — the time stamps are the driver's); an
  ``attempt`` span covers one fault-supervised forward (the event
  driver's ``_Attempt`` ladder); a ``query`` span covers a seeded driver's
  whole route + ripple.
* **point events** — ``forward`` / ``response`` / ``answer`` / ``ack`` /
  ``retry`` / ``reroute`` / ``drop`` / ``timeout`` / ``replica-read`` /
  ``region-recovered`` / ``unreachable`` marks, emitted adjacent to the
  corresponding :class:`~repro.net.context.QueryContext` counter bumps so a
  trace carries exactly the information the counters aggregate.
* **stats** — the final :class:`~repro.net.context.QueryStats` emission.

Timestamps are simulation clocks: the event-driven engines stamp
``sim.now``; the depth-first driver derives virtual hop times from its
analytic latency model (a child forwarded by a sequential visit starts at
``parent arrival + parent latency so far + 1``, by a parallel visit at
``parent arrival + 1``) so that both executions of the same query produce
time-compatible traces.

The default sink is :data:`NULL_SINK`, whose class-level ``enabled=False``
lets every instrumentation site collapse to a single attribute test — the
zero-overhead guarantee: with the null sink, answers and stats are
bit-identical to an un-instrumented build (property-tested in
``tests/obs/test_trace.py``).

:func:`replay` re-derives ``latency`` and ``total_messages`` from a
recorded trace alone; ``tests/obs/test_trace_replay.py`` property-tests
that the replay matches the engine-reported stats exactly, which pins the
instrumentation to the cost model of Lemmas 1–3.

This module deliberately imports nothing from ``repro.core`` / ``repro.net``
(``net.context`` imports it for the default sink), so the observability
layer can never perturb engine import order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ACTIVITY_EVENTS",
    "NULL_SINK",
    "NullSink",
    "PointEvent",
    "QueryTrace",
    "ReplayedStats",
    "Span",
    "TraceSink",
    "critical_path",
    "replay",
    "state_size",
]

#: Point-event kinds that witness real query progress; together with
#: ``process`` span begins and successful ``attempt`` span ends they are
#: exactly the sites where the engines advance their latency clocks
#: (``note_time`` / the analytic fold), so :func:`replay` rebuilds the
#: critical path from them.
ACTIVITY_EVENTS = frozenset({"response", "unreachable"})


def state_size(state: Any) -> int:
    """Number of scalar entries a handler state snapshot carries.

    Handler states are arrays or nested tuples / dataclasses of floats (a
    partial skyline is an ``(m, d)`` array, a top-k certificate a
    dataclass holding a score tuple); the count of scalar leaves is a
    representation-free proxy for the bytes a state message would occupy
    on the wire.
    """
    if state is None:
        return 0
    if isinstance(state, np.ndarray):
        return int(state.size)
    if isinstance(state, (str, bytes)):
        return 1
    if isinstance(state, Mapping):
        return sum(state_size(value) for value in state.values())
    if isinstance(state, Iterable):
        return sum(state_size(item) for item in state)
    fields_ = getattr(state, "__dataclass_fields__", None)
    if fields_ is not None:
        return sum(state_size(getattr(state, name)) for name in fields_)
    return 1


@runtime_checkable
class TraceSink(Protocol):
    """What the engines require of a trace consumer.

    Implementations must treat every argument as **read-only**: a sink
    observes the query, it never steers it (ripplelint rule RPL010
    enforces this statically).  ``enabled`` gates all instrumentation —
    engines test it before computing span attributes, so a disabled sink
    pays one attribute load per site and nothing else.
    """

    enabled: bool

    def begin_span(self, kind: str, peer: Hashable, t: int, *,
                   parent: int | None = None, region: str | None = None,
                   **attrs: Any) -> int:
        """Open a span at time ``t``; returns its id (0 from null sinks)."""
        ...  # pragma: no cover - protocol

    def end_span(self, span_id: int, t: int, **attrs: Any) -> None:
        """Close span ``span_id`` at time ``t``, merging final attributes."""
        ...  # pragma: no cover - protocol

    def event(self, kind: str, t: int, *, span: int = 0, count: int = 1,
              **attrs: Any) -> None:
        """Record an instantaneous mark attached to span ``span``."""
        ...  # pragma: no cover - protocol

    def on_stats(self, stats: Any) -> None:
        """The query finished; ``stats`` is its final ``QueryStats``."""
        ...  # pragma: no cover - protocol


class NullSink:
    """The default sink: discards everything, costs one attribute test.

    ``enabled`` is a *class* attribute, so ``ctx.sink.enabled`` resolves
    without instance dict lookups; engines guard every span/event
    construction behind it and never call these methods in practice.
    """

    __slots__ = ()

    enabled: bool = False

    def begin_span(self, kind: str, peer: Hashable, t: int, *,
                   parent: int | None = None, region: str | None = None,
                   **attrs: Any) -> int:
        return 0

    def end_span(self, span_id: int, t: int, **attrs: Any) -> None:
        return None

    def event(self, kind: str, t: int, *, span: int = 0, count: int = 1,
              **attrs: Any) -> None:
        return None

    def on_stats(self, stats: Any) -> None:
        return None


#: Shared stateless instance; the default of ``QueryContext.sink``.
NULL_SINK = NullSink()


@dataclass
class Span:
    """One interval of query work; ``end`` is None while still open."""

    span_id: int
    kind: str
    peer: Hashable
    begin: int
    parent_id: int | None = None
    end: int | None = None
    region: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        """Closed duration; an open span reads as zero-length."""
        return (self.begin if self.end is None else self.end) - self.begin


@dataclass(frozen=True)
class PointEvent:
    """An instantaneous mark; ``span_id`` 0 means unattached."""

    kind: str
    t: int
    span_id: int = 0
    count: int = 1
    attrs: Mapping[str, Any] = field(default_factory=dict)


class QueryTrace:
    """A recording :class:`TraceSink`: everything, in emission order."""

    enabled: bool = True

    def __init__(self) -> None:
        self._next_id = itertools.count(1)
        self.spans: list[Span] = []
        self.events: list[PointEvent] = []
        #: Final ``QueryStats`` emissions (several for multi-round queries
        #: such as diversification — one per sub-query).
        self.stats_records: list[Any] = []
        self._by_id: dict[int, Span] = {}

    # -- TraceSink interface ----------------------------------------------

    def begin_span(self, kind: str, peer: Hashable, t: int, *,
                   parent: int | None = None, region: str | None = None,
                   **attrs: Any) -> int:
        span = Span(next(self._next_id), kind, peer, int(t),
                    parent_id=parent, region=region, attrs=dict(attrs))
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span.span_id

    def end_span(self, span_id: int, t: int, **attrs: Any) -> None:
        span = self._by_id.get(span_id)
        if span is None:
            return
        span.end = int(t)
        span.attrs.update(attrs)

    def event(self, kind: str, t: int, *, span: int = 0, count: int = 1,
              **attrs: Any) -> None:
        self.events.append(PointEvent(kind, int(t), span, count, dict(attrs)))

    def on_stats(self, stats: Any) -> None:
        self.stats_records.append(stats)

    # -- structure helpers ------------------------------------------------

    def get_span(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def roots(self) -> list[Span]:
        """Top-level spans, in creation order (one per query round)."""
        return [span for span in self.spans if span.parent_id is None]

    def children(self) -> dict[int, list[Span]]:
        """Parent span id -> child spans, in creation order."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                out.setdefault(span.parent_id, []).append(span)
        return out

    def root_of(self, span_id: int) -> int:
        """The id of the top-level ancestor of ``span_id``."""
        current = self._by_id[span_id]
        while current.parent_id is not None:
            current = self._by_id[current.parent_id]
        return current.span_id


@dataclass(frozen=True)
class ReplayedStats:
    """What :func:`replay` can reconstruct from a trace alone."""

    latency: int
    forward_messages: int
    response_messages: int
    answer_messages: int

    @property
    def total_messages(self) -> int:
        return (self.forward_messages + self.response_messages
                + self.answer_messages)


def replay(trace: QueryTrace) -> ReplayedStats:
    """Re-derive ``latency`` and the message counts from a recorded trace.

    Message counts mirror the counter sites one-to-one: each ``forward``
    event is one forward message, a ``response`` event carries the number
    of state messages it folded, each ``answer`` event is one non-empty
    answer upload.

    Latency is the per-root critical path: within each root tree the
    latest *activity* timestamp (``process`` span begins, successful
    ``attempt`` span ends, :data:`ACTIVITY_EVENTS` marks) measured from
    the root's begin — summed across roots, because multi-round queries
    run their rounds back to back (``QueryStats.combine_sequential``).
    """
    forwards = 0
    responses = 0
    answers = 0
    activity: dict[int, int] = {}
    for root in trace.roots():
        activity[root.span_id] = root.begin

    def mark(span_id: int, t: int) -> None:
        root_id = trace.root_of(span_id)
        if t > activity.setdefault(root_id, t):
            activity[root_id] = t

    for span in trace.spans:
        if span.kind == "process":
            mark(span.span_id, span.begin)
        elif (span.kind == "attempt" and span.end is not None
              and span.attrs.get("status") == "ok"):
            mark(span.span_id, span.end)
    for event in trace.events:
        if event.kind == "forward":
            forwards += 1
        elif event.kind == "response":
            responses += event.count
        elif event.kind == "answer":
            answers += 1
        if event.kind in ACTIVITY_EVENTS and event.span_id:
            mark(event.span_id, event.t)

    latency = sum(activity[root.span_id] - root.begin
                  for root in trace.roots())
    return ReplayedStats(latency=latency, forward_messages=forwards,
                         response_messages=responses,
                         answer_messages=answers)


def _activity_marks(trace: QueryTrace) -> dict[int, int]:
    """Per-span latest *own* activity timestamp (no descendants)."""
    own: dict[int, int] = {}
    for span in trace.spans:
        if span.kind == "process":
            own[span.span_id] = span.begin
        elif (span.kind == "attempt" and span.end is not None
              and span.attrs.get("status") == "ok"):
            own[span.span_id] = span.end
    for event in trace.events:
        if event.kind in ACTIVITY_EVENTS and event.span_id:
            if event.t > own.get(event.span_id, event.t - 1):
                own[event.span_id] = event.t
    return own


def critical_path(trace: QueryTrace,
                  root_id: int | None = None) -> list[Span]:
    """The chain of ``process`` spans leading to the latest activity.

    Walks from the root (the one with the largest latency contribution
    unless ``root_id`` picks one) down the child whose subtree holds the
    tree's latest activity mark; the spans on that walk are the hops the
    query's latency is made of — ``path[-1]`` begins exactly ``latency``
    time units after the root begins on fault-free traces (the fig7-style
    acceptance test pins this).
    """
    if not trace.spans:
        return []
    children = trace.children()
    own = _activity_marks(trace)
    # Children are always created after their parents, so one reverse
    # sweep over creation order folds subtree maxima bottom-up.
    subtree: dict[int, int] = {}
    for span in reversed(trace.spans):
        best = own.get(span.span_id, span.begin)
        for child in children.get(span.span_id, ()):
            best = max(best, subtree[child.span_id])
        subtree[span.span_id] = best

    roots = trace.roots()
    if root_id is None:
        root = max(roots, key=lambda s: (subtree[s.span_id] - s.begin,
                                         -s.span_id))
    else:
        root = next(s for s in roots if s.span_id == root_id)
    path: list[Span] = []
    current = root
    while True:
        if current.kind == "process":
            path.append(current)
        descend = None
        for child in children.get(current.span_id, ()):
            if subtree[child.span_id] == subtree[current.span_id]:
                descend = child
                break
        if descend is None:
            return path
        current = descend
