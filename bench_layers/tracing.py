"""Spans recorded from the benchmark's side of each layer boundary.

The program under test carries no host-time instrumentation (that is a
later change), so every span here wraps a call this package makes into a
layer's public function; ``name`` is ``<module>.<function>``.  Spans stay
in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Sequence

from ._clock import _wallclock

__all__ = ["Span", "Recorder", "seconds_of", "self_times",
           "self_time_by_name", "write_jsonl"]


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    qid: int | None


class Recorder:
    """Times calls; additionally keeps spans when tracing.

    Spans sit outside the program, so a traced pass differs from an
    untraced one only by the span bookkeeping around each call — which is
    what ``trace_overhead_share`` measures.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self.spans: list[Span] | None = [] if trace else None
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, qid: int | None, fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """``fn(*args, **kwargs)`` and the host seconds it took; calls
        ``fn`` makes back into this recorder nest under its span."""
        if self.spans is None:
            start = _wallclock()
            out = fn(*args, **kwargs)
            return out, _wallclock() - start
        span = self._open(name, qid)
        start = _wallclock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = _wallclock()
            self._stack.pop()
            span.start_ns, span.end_ns = int(start * 1e9), int(end * 1e9)
        return out, end - start

    @contextmanager
    def span(self, name: str, qid: int | None = None) -> Iterator[None]:
        """A parent span around a block of calls."""
        if self.spans is None:
            yield
            return
        span = self._open(name, qid)
        span.start_ns = int(_wallclock() * 1e9)
        try:
            yield
        finally:
            span.end_ns = int(_wallclock() * 1e9)
            self._stack.pop()

    def _open(self, name: str, qid: int | None) -> Span:
        assert self.spans is not None
        span = Span(self._next_id, name, 0, 0,
                    self._stack[-1] if self._stack else None, qid)
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span.id)
        return span



def seconds_of(spans: Sequence[Span], name: str) -> list[float]:
    """Durations, in seconds, of the spans called ``name``."""
    return [(s.end_ns - s.start_ns) / 1e9 for s in spans if s.name == name]


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time per span id: duration minus the part of it covered by
    child spans (overlapping children are merged, not double-counted)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, int] = {}
    for span in spans:
        covered, reach = 0, span.start_ns
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start_ns):
            lo = max(child.start_ns, reach)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end_ns - span.start_ns) - covered
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, tuple[int, int]]:
    """``name -> (calls, total self ns)``, in first-seen order."""
    own = self_times(spans)
    out: dict[str, tuple[int, int]] = {}
    for span in spans:
        calls, total = out.get(span.name, (0, 0))
        out[span.name] = (calls + 1, total + own[span.id])
    return out


def write_jsonl(path: str, spans: Sequence[Span]) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
