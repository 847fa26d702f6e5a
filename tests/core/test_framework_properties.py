"""Property-based tests on the RIPPLE framework invariants.

These fuzz random networks, datasets, scoring functions and ripple
parameters, and assert the structural properties the paper's correctness
arguments rest on: exact answers, single visits, message accounting, and
the latency ordering of the r spectrum.
"""

import random
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (LinearScore, MidasOverlay, NearestScore, run_ripple)
from repro.core.framework import _Visit, execute
from repro.net.context import QueryContext
from repro.queries.skyline import SkylineHandler, skyline_reference
from repro.queries.topk import TopKHandler, topk_reference
from tests.netlib import DIMS, OVERLAYS, STRICT, build_network, handlers_for

network_params = st.tuples(
    st.integers(0, 10 ** 6),       # seed
    st.integers(2, 4),             # dims
    st.integers(4, 40),            # peers
    st.integers(20, 300),          # tuples
)

relaxed = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def build(seed, dims, peers, tuples):
    rng = np.random.default_rng(seed)
    data = rng.random((tuples, dims)) * 0.999
    overlay = MidasOverlay(dims, size=1, seed=seed, join_policy="data")
    overlay.load(data)
    overlay.grow_to(peers)
    return overlay, data, rng


class TestTopKProperties:
    @given(network_params, st.integers(1, 12), st.integers(0, 6),
           st.lists(st.floats(-1, 1), min_size=2, max_size=4))
    @relaxed
    def test_exact_answers_any_configuration(self, params, k, r, weights):
        overlay, data, rng = build(*params)
        weights = (weights + [1.0] * overlay.dims)[: overlay.dims]
        fn = LinearScore(weights)
        handler = TopKHandler(fn, k)
        reference = [s for s, _ in topk_reference(data, fn, k)]
        result = run_ripple(overlay.random_peer(rng), handler, r,
                            restriction=overlay.domain(), strict=True)
        assert [s for s, _ in result.answer] == pytest.approx(reference)

    @given(network_params, st.integers(1, 5))
    @relaxed
    def test_nearest_neighbor_queries(self, params, k):
        overlay, data, rng = build(*params)
        fn = NearestScore(tuple(rng.random(overlay.dims)))
        handler = TopKHandler(fn, k)
        reference = [s for s, _ in topk_reference(data, fn, k)]
        result = run_ripple(overlay.random_peer(rng), handler, 2,
                            restriction=overlay.domain())
        assert [s for s, _ in result.answer] == pytest.approx(reference)

    @given(network_params)
    @relaxed
    def test_message_accounting_invariants(self, params):
        overlay, data, rng = build(*params)
        handler = TopKHandler(LinearScore([1.0] * overlay.dims), 3)
        result = run_ripple(overlay.random_peer(rng), handler, 3,
                            restriction=overlay.domain())
        stats = result.stats
        # every non-initiator processed peer was reached by >= 1 forward
        assert stats.forward_messages >= stats.processed - 1
        assert stats.processed <= len(overlay)
        assert stats.latency >= 0
        assert stats.total_messages == (stats.forward_messages
                                        + stats.response_messages
                                        + stats.answer_messages)

    @given(network_params)
    @relaxed
    def test_latency_structure_of_the_extremes(self, params):
        """fast's latency is bounded by the tree depth (Lemma 1's regime);
        slow's latency equals its sequential forward count exactly."""
        overlay, data, rng = build(*params)
        handler = TopKHandler(LinearScore([1.0] * overlay.dims), 3)
        initiator = overlay.random_peer(rng)
        fast = run_ripple(initiator, handler, 0,
                          restriction=overlay.domain())
        slow = run_ripple(initiator, handler, 10 ** 9,
                          restriction=overlay.domain())
        assert fast.stats.latency <= overlay.tree.max_depth()
        assert slow.stats.latency == slow.stats.forward_messages
        assert slow.stats.forward_messages == slow.stats.processed - 1


class TestSkylineProperties:
    @given(network_params, st.integers(0, 5))
    @relaxed
    def test_exact_skylines(self, params, r):
        overlay, data, rng = build(*params)
        handler = SkylineHandler(overlay.dims)
        result = run_ripple(overlay.random_peer(rng), handler, r,
                            restriction=overlay.domain(), strict=True)
        assert result.answer == skyline_reference(data)

    @given(network_params)
    @relaxed
    def test_answer_is_antichain_covering_data(self, params):
        from repro.common.geometry import dominates

        overlay, data, rng = build(*params)
        handler = SkylineHandler(overlay.dims)
        result = run_ripple(overlay.random_peer(rng), handler, 1,
                            restriction=overlay.domain())
        sky = result.answer
        for a in sky:
            assert not any(dominates(b, a) for b in sky)
        sky_set = set(sky)
        for row in data[:: max(1, len(data) // 40)]:
            point = tuple(row)
            assert point in sky_set or any(
                dominates(s, point) or s == point for s in sky)


def shuffled_driver(initiator, handler, restriction, seed):
    """A fourth driver: run the pending ``r = 0`` visits in shuffled order.

    Neither depth-first, timestamp nor wave order — so whatever it agrees
    with ``run_ripple`` on cannot depend on who schedules the step.
    """
    rng = random.Random(seed)
    ctx = QueryContext(strict=True)
    pending = [partial(_Visit, ctx, handler, initiator,
                       handler.initial_state(), restriction, 0,
                       initiator.peer_id, 0)]
    while pending:
        visit = pending.pop(rng.randrange(len(pending)))()
        for target, sub in iter(visit.next_forward, None):
            visit.note_forward(target, 0)
            pending.append(partial(visit.child, target, sub, 0))
        visit.finish(0)
    return handler.finalize(ctx.collected_answers), ctx


class TestDriverAgnosticCore:
    @given(st.sampled_from([kind for kind in OVERLAYS if STRICT[kind]]),
           st.integers(0, 50), st.integers(0, 2), st.integers(0, 10 ** 6))
    @relaxed
    def test_any_visit_order_reproduces_run_ripple(self, kind, seed, which,
                                                   order_seed):
        overlay = build_network(kind, seed, peers=24, tuples=150)
        handler = handlers_for(DIMS[kind])[which]
        initiator = overlay.peers()[seed % 24]
        # run_ripple is execute() over a fresh context; owning the context
        # exposes the processed *set*, not just its size.
        reference = QueryContext(strict=True)
        expected = execute(initiator, handler, 0,
                           restriction=overlay.domain(), ctx=reference)
        answer, ctx = shuffled_driver(initiator, handler, overlay.domain(),
                                      order_seed)
        assert answer == expected.answer
        assert ctx.processed == reference.processed
        for counter in ("forward_messages", "answer_messages",
                        "tuples_shipped"):
            assert getattr(ctx, counter) == getattr(reference, counter)
