"""Exporter tests: lossless JSONL round-trips and valid Perfetto JSON.

The acceptance check from the issue rides here too: tracing a
figure-7-style skyline over a 200-peer MIDAS overlay must yield a
critical path whose end-to-end duration equals the reported
``QueryStats.latency``, and the trace must survive a JSONL round-trip
and export to well-formed ``trace_event`` JSON.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro import (LinearScore, QueryTrace, SkylineHandler, TopKHandler,
                   distributed_skyline, run_ripple)
from repro.obs import (critical_path, load_jsonl, replay, to_jsonl_records,
                       to_perfetto, write_jsonl, write_perfetto)
from repro.obs.traceview import render

from tests import netlib

from .conftest import build_network


def record_trace(kind="midas", query="topk", seed=3, r=1, **net_kwargs):
    overlay = build_network(kind, seed, **net_kwargs)
    dims = netlib.DIMS[kind]
    if query == "topk":
        handler = TopKHandler(LinearScore([1.0] * dims), 4)
    else:
        handler = SkylineHandler(dims)
    trace = QueryTrace()
    peer = overlay.random_peer(np.random.default_rng(seed))
    result = run_ripple(peer, handler, r, restriction=overlay.domain(),
                        strict=False, sink=trace)
    return trace, result


class TestJsonl:
    def test_round_trip_is_stable(self, tmp_path):
        # Loading an archive and re-serializing it is the identity: the
        # JSON projection (tuples -> lists etc.) is a fixed point.
        trace, _ = record_trace()
        path = tmp_path / "query.jsonl"
        write_jsonl(trace, path)
        loaded = load_jsonl(path)
        assert to_jsonl_records(loaded) == \
            json.loads(json.dumps(to_jsonl_records(trace)))
        assert [s.span_id for s in loaded.spans] \
            == [s.span_id for s in trace.spans]
        assert [e.kind for e in loaded.events] \
            == [e.kind for e in trace.events]

    def test_round_trip_replays_identically(self, tmp_path):
        trace, result = record_trace(kind="chord", query="skyline", r=0)
        path = tmp_path / "query.jsonl"
        write_jsonl(trace, path)
        replayed = replay(load_jsonl(path))
        assert replayed.latency == result.stats.latency
        assert replayed.total_messages == result.stats.total_messages

    def test_every_line_is_json(self, tmp_path):
        trace, _ = record_trace(kind="can")
        path = tmp_path / "query.jsonl"
        write_jsonl(trace, path)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["spans"] == len(trace.spans)
        assert len(records) == len(to_jsonl_records(trace))


class TestPerfetto:
    def test_trace_event_shape(self, tmp_path):
        trace, _ = record_trace(query="skyline")
        doc = to_perfetto(trace)
        events = doc["traceEvents"]
        assert events, "empty Perfetto export"
        for ev in events:
            assert ev["ph"] in ("X", "i", "M")
            assert "pid" in ev
            if ev["ph"] != "M":  # metadata records carry no timestamp
                assert "tid" in ev and "ts" in ev
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert len(complete) == len(trace.spans)
        # Survives a JSON round-trip (no exotic values leaked through).
        path = tmp_path / "trace.json"
        write_perfetto(trace, path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))

    def test_instants_cover_point_events(self):
        trace, _ = record_trace(r=2)
        doc = to_perfetto(trace)
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert len(instants) == len(trace.events)


class TestAcceptance:
    """Fig-7-scale skyline: critical path duration == reported latency."""

    @pytest.fixture(scope="class")
    def fig7(self):
        overlay = build_network("midas", seed=1, peers=200, tuples=1200)
        trace = QueryTrace()
        result = distributed_skyline(
            overlay.random_peer(np.random.default_rng(1)), 2,
            restriction=overlay.domain(), r=1, sink=trace)
        return trace, result

    def test_critical_path_duration_is_latency(self, fig7):
        trace, result = fig7
        path = critical_path(trace)
        assert path, "critical path is empty"
        root = trace.get_span(trace.root_of(path[0].span_id))
        assert path[-1].begin - root.begin == result.stats.latency

    def test_render_names_the_path(self, fig7):
        trace, result = fig7
        text = render(trace)
        assert "critical path" in text.lower()
        assert str(result.stats.latency) in text
        assert "fan-out per peer: n=" in text
        assert "state size per hop: n=" in text

    def test_render_counts_fanout_and_state_size(self, fig7):
        # The two summary lines against a direct count over the trace:
        # forwards per originating peer, and the ``state_size`` of every
        # ``process`` span.
        trace, result = fig7
        forwards = Counter(trace.get_span(e.span_id).peer
                           for e in trace.events
                           if e.kind == "forward" and e.span_id)
        assert sum(forwards.values()) == result.stats.forward_messages
        sizes = [s.attrs["state_size"] for s in trace.spans
                 if s.kind == "process" and "state_size" in s.attrs]
        lines = render(trace).splitlines()
        assert lines[-2] == (
            f"fan-out per peer: n={len(forwards)} "
            f"mean={sum(forwards.values()) / len(forwards):.2f} "
            f"max={max(forwards.values())}")
        assert lines[-1] == (
            f"state size per hop: n={len(sizes)} "
            f"mean={sum(sizes) / len(sizes):.1f} max={max(sizes)}")

    def test_render_of_an_empty_trace(self):
        lines = render(QueryTrace()).splitlines()
        assert lines[-2:] == ["fan-out per peer: n=0 mean=0.00 max=0",
                              "state size per hop: n=0 mean=0.0 max=0"]

    def test_round_trip_at_scale(self, fig7, tmp_path):
        trace, result = fig7
        path = tmp_path / "fig7.jsonl"
        write_jsonl(trace, path)
        replayed = replay(load_jsonl(path))
        assert replayed.latency == result.stats.latency
        assert replayed.total_messages == result.stats.total_messages
