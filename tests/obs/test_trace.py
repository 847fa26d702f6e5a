"""NullSink bit-identity plus unit coverage of the trace primitives.

The tentpole guarantee of the observability layer: attaching a sink (or
none at all — ``NULL_SINK`` is the default) never perturbs a query.
Answers and every ``QueryStats`` field must be bit-identical between a
bare run and a run recording a full :class:`QueryTrace`, across every
overlay family, query type, and engine — including churn.
"""

import numpy as np
import pytest

from repro import (DiversificationObjective, FaultPlan, LinearScore,
                   QueryTrace, RippleDiversifier, SLOW, SkylineHandler,
                   TopKHandler, event_driven_ripple, greedy_diversify,
                   resilient_ripple, run_ripple)
from repro.obs import NULL_SINK, NullSink, Span, state_size

from tests import netlib

from .conftest import build_network

# strict=False throughout: CAN's conservative region covers legally
# revisit peers, which strict contexts treat as a simulator error.
ENGINES = {
    "recursive": lambda peer, handler, r, region, sink: run_ripple(
        peer, handler, r, restriction=region, strict=False, sink=sink),
    "eventsim": lambda peer, handler, r, region, sink: event_driven_ripple(
        peer, handler, r, restriction=region, strict=False, sink=sink),
    "resilient": lambda peer, handler, r, region, sink: resilient_ripple(
        peer, handler, r, restriction=region, sink=sink),
}


def handler_for(query, dims):
    if query == "topk":
        return TopKHandler(LinearScore([1.0] * dims), 4)
    return SkylineHandler(dims)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("query", ["topk", "skyline"])
@pytest.mark.parametrize("kind", netlib.OVERLAYS)
def test_nullsink_bit_identity(kind, query, engine, trace):
    overlay = build_network(kind, seed=3)
    dims = netlib.DIMS[kind]
    handler = handler_for(query, dims)
    run = ENGINES[engine]
    for r in (0, 2, SLOW):
        peer = overlay.random_peer(np.random.default_rng(11))
        bare = run(peer, handler, r, overlay.domain(), None)
        traced = run(peer, handler, r, overlay.domain(), trace)
        assert traced.answer == bare.answer, (kind, query, engine, r)
        assert traced.stats.as_dict() == bare.stats.as_dict(), \
            (kind, query, engine, r)


@pytest.mark.parametrize("kind", netlib.OVERLAYS)
def test_nullsink_bit_identity_under_churn(kind, trace):
    overlay = build_network(kind, seed=5)
    dims = netlib.DIMS[kind]
    handler = handler_for("topk", dims)

    def run(sink):
        plan = FaultPlan.churn(overlay, crash_fraction=0.3, seed=7,
                               drop_prob=0.05, jitter=1)
        peer = overlay.random_peer(np.random.default_rng(11))
        return resilient_ripple(peer, handler, 1,
                                restriction=overlay.domain(),
                                faults=plan, sink=sink)

    bare = run(None)
    traced = run(trace)
    assert traced.answer == bare.answer
    assert traced.stats.as_dict() == bare.stats.as_dict()
    assert trace.spans, "churn run recorded nothing"


def test_nullsink_bit_identity_diversification(trace):
    overlay = build_network("midas", seed=9, peers=24, tuples=200)
    rng = np.random.default_rng(2)
    objective = DiversificationObjective(
        overlay.domain().cover()[0].lo, 0.5, p=1)

    def run(sink):
        engine = RippleDiversifier(
            overlay, overlay.random_peer(np.random.default_rng(4)),
            r=0, sink=sink)
        return greedy_diversify(engine, objective, 4, max_iters=3)

    bare = run(None)
    traced = run(trace)
    assert traced.answer == bare.answer
    assert traced.stats.as_dict() == bare.stats.as_dict()
    # One root span per distributed sub-query of the greedy loop.
    assert len(trace.roots()) > 1


# -- primitives -------------------------------------------------------------


class TestNullSink:
    def test_disabled_and_inert(self):
        sink = NullSink()
        assert sink.enabled is False
        assert sink.begin_span("process", 1, 0) == 0
        assert sink.end_span(0, 3) is None
        assert sink.event("forward", 1) is None
        assert sink.on_stats(object()) is None

    def test_shared_singleton_is_nullsink(self):
        assert isinstance(NULL_SINK, NullSink)
        assert not NULL_SINK.enabled

    def test_slots_zero_state(self):
        assert NullSink.__slots__ == ()


class TestQueryTrace:
    def test_span_tree_bookkeeping(self):
        trace = QueryTrace()
        root = trace.begin_span("query", "a", 0)
        child = trace.begin_span("process", "b", 1, parent=root)
        trace.end_span(child, 4, state_size=2)
        trace.end_span(root, 5)
        assert [span.span_id for span in trace.roots()] == [root]
        assert [span.span_id
                for span in trace.children().get(root, [])] == [child]
        assert trace.root_of(child) == root
        got = trace.get_span(child)
        assert got is not None and got.end == 4
        assert got.attrs["state_size"] == 2
        assert got.duration == 3

    def test_events_and_stats_recorded(self):
        trace = QueryTrace()
        span = trace.begin_span("process", "a", 0)
        trace.event("forward", 1, span=span, target="b")
        trace.on_stats({"latency": 1})
        assert trace.events[0].kind == "forward"
        assert trace.events[0].attrs["target"] == "b"
        assert trace.stats_records == [{"latency": 1}]

    def test_ids_are_unique_and_nonzero(self):
        trace = QueryTrace()
        ids = [trace.begin_span("process", i, 0) for i in range(10)]
        assert len(set(ids)) == 10
        assert 0 not in ids  # 0 is the NullSink sentinel


class TestStateSize:
    @pytest.mark.parametrize("value,expected", [
        (None, 0),
        (3.5, 1),
        ("abc", 1),
        ((1.0, 2.0, 3.0), 3),
        ({"scores": (1.0, 2.0), "floor": 0.1}, 3),
        ([(1.0, 2.0), (3.0, 4.0)], 4),
        ((), 0),
    ])
    def test_scalar_leaf_count(self, value, expected):
        assert state_size(value) == expected

    def test_dataclass_state(self):
        from repro.queries.topk import TopKState
        assert state_size(TopKState(scores=(5.0, 4.0), floor=4.0)) == 3

    def test_numpy_array(self):
        rows = np.arange(8.0).reshape(4, 2)
        # An (m, d) array counts what a tuple of m d-tuples counts.
        assert state_size(rows) == 8
        assert state_size(tuple(map(tuple, rows.tolist()))) == 8
        assert type(state_size(rows)) is int
        assert state_size(np.empty((0, 3))) == 0


def test_span_is_plain_data():
    span = Span(span_id=1, kind="process", peer="a", begin=2)
    assert span.end is None
    assert span.duration == 0  # open spans read as zero-length
    assert span.parent_id is None
