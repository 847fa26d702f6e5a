"""Query observability: hop-level tracing, replay, and exporters.

See ``docs/OBSERVABILITY.md``.  The package is dependency-light and
imports nothing from the simulation engines, so attaching (or not
attaching) a sink can never change engine behavior; the default
:data:`NULL_SINK` makes instrumentation a single attribute test per site.
"""

from .export import (load_jsonl, to_jsonl_records, to_perfetto, write_jsonl,
                     write_perfetto)
from .trace import (ACTIVITY_EVENTS, NULL_SINK, NullSink, PointEvent,
                    QueryTrace, ReplayedStats, Span, TraceSink, critical_path,
                    replay, state_size)

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
    "load_jsonl",
    "replay",
    "state_size",
    "to_jsonl_records",
    "to_perfetto",
    "write_jsonl",
    "write_perfetto",
]
