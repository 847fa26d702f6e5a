"""Property test: a recorded trace fully determines the reported stats.

:func:`repro.obs.replay` rebuilds ``latency`` and the three message
counters from the span/event stream alone.  If the instrumentation ever
drifts from the engines' counter sites (a forward without its event, a
response event with the wrong fold count, a latency clock advanced
without an activity mark), replay diverges from the engine-reported
``QueryStats`` and this property fails — pinning the trace to the cost
model of Lemmas 1-3 across random overlay / handler / r / fault-plan
configurations.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (FaultPlan, LinearScore, QueryTrace, SLOW, SkylineHandler,
                   TopKHandler, distributed_skyline, distributed_topk,
                   event_driven_ripple, resilient_ripple, run_ripple)
from repro.net.scheduler import QueryEngine
from repro.obs import replay

from tests import netlib

from .conftest import build_network

R_VALUES = (0, 1, 3, SLOW)


@lru_cache(maxsize=16)
def network(kind, seed):
    return build_network(kind, seed, peers=28, tuples=220)


def handler_for(query, dims):
    if query == "topk":
        return TopKHandler(LinearScore([1.0] * dims), 4)
    return SkylineHandler(dims)


def check(trace, stats):
    replayed = replay(trace)
    assert replayed.latency == stats.latency
    assert replayed.forward_messages == stats.forward_messages
    assert replayed.response_messages == stats.response_messages
    assert replayed.answer_messages == stats.answer_messages
    assert replayed.total_messages == stats.total_messages


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(netlib.OVERLAYS),
    net_seed=st.integers(0, 2),
    query=st.sampled_from(["topk", "skyline"]),
    r=st.sampled_from(R_VALUES),
    engine=st.sampled_from(["recursive", "eventsim"]),
    peer_seed=st.integers(0, 5),
)
def test_replay_matches_fault_free_engines(kind, net_seed, query, r,
                                           engine, peer_seed):
    overlay = network(kind, net_seed)
    dims = netlib.DIMS[kind]
    handler = handler_for(query, dims)
    peer = overlay.random_peer(np.random.default_rng(peer_seed))
    trace = QueryTrace()
    run = run_ripple if engine == "recursive" else event_driven_ripple
    result = run(peer, handler, r, restriction=overlay.domain(),
                 strict=False, sink=trace)
    check(trace, result.stats)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(netlib.OVERLAYS),
    net_seed=st.integers(0, 1),
    query=st.sampled_from(["topk", "skyline"]),
    r=st.sampled_from(R_VALUES),
    fault_seed=st.integers(0, 4),
    crash=st.sampled_from([0.0, 0.2, 0.4]),
    drop=st.sampled_from([0.0, 0.08]),
    jitter=st.sampled_from([0, 2]),
)
# Crashed peers orphan subtrees here that would keep working after the
# answer is complete (see test_settled_query_stops_counting).
@example(kind="can", net_seed=1, query="topk", r=SLOW, fault_seed=3,
         crash=0.4, drop=0.08, jitter=2)
def test_replay_matches_supervised_engine(kind, net_seed, query, r,
                                          fault_seed, crash, drop, jitter):
    overlay = network(kind, net_seed)
    dims = netlib.DIMS[kind]
    handler = handler_for(query, dims)
    peer = overlay.random_peer(np.random.default_rng(fault_seed))
    plan = FaultPlan.churn(overlay, crash_fraction=crash, seed=fault_seed,
                           drop_prob=drop, jitter=jitter)
    trace = QueryTrace()
    result = resilient_ripple(peer, handler, r,
                              restriction=overlay.domain(),
                              faults=plan, sink=trace)
    check(trace, result.stats)


def test_settled_query_stops_counting():
    """A query settles when its answer is complete: work still queued for
    subtrees orphaned by crashed peers is dropped, so it stretches neither
    the latency (546 if it ran) nor the forwards (89) of either entry
    point, and the engine's trace replays to its stats."""
    overlay = network("can", 1)
    handler = handler_for("topk", netlib.DIMS["can"])
    peer = overlay.random_peer(np.random.default_rng(3))

    def plan():
        return FaultPlan.churn(overlay, crash_fraction=0.4, seed=3,
                               drop_prob=0.08, jitter=2)

    trace = QueryTrace()
    engine = QueryEngine(capacity=1, faults=plan(), sink=trace)
    job = engine.submit(peer, handler, SLOW, restriction=overlay.domain())
    outcome = engine.run()[job]
    check(trace, outcome.stats)
    assert (outcome.stats.latency, outcome.stats.forward_messages) \
        == (362, 68)
    solo = resilient_ripple(peer, handler, SLOW,
                            restriction=overlay.domain(), faults=plan())
    assert solo.stats == outcome.stats
    assert solo.answer == outcome.answer


@settings(max_examples=20, deadline=None)
@given(
    net_seed=st.integers(0, 2),
    query=st.sampled_from(["topk", "skyline"]),
    r=st.sampled_from(R_VALUES),
    peer_seed=st.integers(0, 5),
)
def test_replay_matches_seeded_drivers(net_seed, query, r, peer_seed):
    """The routed+probed drivers trace under one query root span."""
    overlay = network("midas", net_seed)
    peer = overlay.random_peer(np.random.default_rng(peer_seed))
    trace = QueryTrace()
    if query == "topk":
        result = distributed_topk(peer, LinearScore([1.0, 1.0]), 4,
                                  restriction=overlay.domain(), r=r,
                                  sink=trace)
    else:
        result = distributed_skyline(peer, 2, restriction=overlay.domain(),
                                     r=r, sink=trace)
    check(trace, result.stats)
    assert len(trace.roots()) == 1
    assert trace.roots()[0].kind == "query"
