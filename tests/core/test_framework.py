"""Integration tests for the RIPPLE templates over MIDAS."""

import numpy as np
import pytest

from repro import (
    LinearScore,
    MidasOverlay,
    SLOW,
    TopKHandler,
    run_fast,
    run_ripple,
    run_slow,
    topk_reference,
)
from repro.net import QueryEngine, event_driven_ripple, resilient_ripple
from repro.net.context import DuplicateVisitError
from tests.netlib import midas_network


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(0)
    data = rng.random((600, 3)) * 0.999
    overlay = MidasOverlay(3, size=1, seed=1, join_policy="data")
    overlay.load(data)
    overlay.grow_to(60)
    return overlay, data


def scores(result):
    return [s for s, _ in result.answer]


class TestCorrectness:
    def test_fast_matches_reference(self, network):
        overlay, data = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 5)
        ref = topk_reference(data, handler.fn, 5)
        res = run_fast(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        assert scores(res) == [s for s, _ in ref]

    def test_slow_matches_reference(self, network):
        overlay, data = network
        handler = TopKHandler(LinearScore([1, -1, 0.5]), 7)
        ref = topk_reference(data, handler.fn, 7)
        res = run_slow(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        assert scores(res) == [s for s, _ in ref]

    def test_every_r_matches_reference(self, network):
        overlay, data = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 3)
        ref = [s for s, _ in topk_reference(data, handler.fn, 3)]
        for r in range(0, 8):
            res = run_ripple(overlay.random_peer(), handler, r,
                             restriction=overlay.domain())
            assert scores(res) == ref, f"r={r}"

    def test_every_initiator_agrees(self, network):
        overlay, data = network
        handler = TopKHandler(LinearScore([2, 1, 1]), 4)
        ref = [s for s, _ in topk_reference(data, handler.fn, 4)]
        for peer in list(overlay.peers())[::7]:
            res = run_fast(peer, handler, restriction=overlay.domain())
            assert scores(res) == ref

    def test_single_peer_network(self):
        overlay = MidasOverlay(2, size=1)
        overlay.load(np.array([[0.1, 0.2], [0.3, 0.4]]))
        handler = TopKHandler(LinearScore([1, 1]), 1)
        res = run_fast(overlay.peers()[0], handler,
                       restriction=overlay.domain())
        assert scores(res) == [pytest.approx(0.7)]
        assert res.stats.latency == 0
        assert res.stats.processed == 1

    def test_k_larger_than_dataset(self):
        overlay = MidasOverlay(2, size=8, seed=3)
        overlay.load(np.array([[0.1, 0.2], [0.3, 0.4]]))
        handler = TopKHandler(LinearScore([1, 1]), 10)
        res = run_slow(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        assert len(res.answer) == 2

    @pytest.mark.parametrize("run", [
        run_ripple, event_driven_ripple, resilient_ripple,
        lambda *args, **kwargs: QueryEngine().submit(*args, **kwargs),
    ], ids=["run_ripple", "event_driven_ripple", "resilient_ripple",
            "QueryEngine.submit"])
    def test_negative_r_rejected(self, run):
        overlay = midas_network(0, peers=32)
        handler = TopKHandler(LinearScore([1, 1]), 2)
        with pytest.raises(ValueError, match="non-negative"):
            run(overlay.random_peer(), handler, -1,
                restriction=overlay.domain())


class TestCostModel:
    def test_fast_latency_bounded_by_depth(self, network):
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 5)
        res = run_fast(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        assert res.stats.latency <= overlay.tree.max_depth()

    def test_slow_latency_equals_processed_minus_one_when_unpruned(self):
        """With a query that never prunes, slow touches every peer
        sequentially: latency = n - 1 (Lemma 2's behaviour)."""
        overlay = MidasOverlay(2, size=32, seed=4)
        overlay.load(np.random.default_rng(0).random((64, 2)) * 0.999)
        handler = TopKHandler(LinearScore([1, 1]), 10 ** 6)
        res = run_slow(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        assert res.stats.processed == 32
        assert res.stats.latency == 31

    def test_fast_visits_all_peers_when_unpruned(self):
        overlay = MidasOverlay(2, size=32, seed=5)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        res = run_fast(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        # empty stores: certificate never fills, no pruning possible
        assert res.stats.processed == 32

    def test_latency_monotone_in_r_on_average(self, network):
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 5)
        rng = np.random.default_rng(2)
        lat = {}
        for r in (0, 3, SLOW):
            samples = [run_ripple(overlay.random_peer(rng), handler, r,
                                  restriction=overlay.domain()).stats.latency
                       for _ in range(10)]
            lat[r] = np.mean(samples)
        assert lat[0] <= lat[3] <= lat[SLOW]

    def test_messages_accounted(self, network):
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 5)
        res = run_slow(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        stats = res.stats
        assert stats.forward_messages >= stats.processed - 1
        assert stats.response_messages > 0
        assert stats.total_messages == (stats.forward_messages
                                        + stats.response_messages
                                        + stats.answer_messages)

    def test_fast_sends_no_state_responses(self, network):
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 5)
        res = run_fast(overlay.random_peer(), handler,
                       restriction=overlay.domain())
        assert res.stats.response_messages == 0


class TestVisitDiscipline:
    def test_midas_never_double_visits(self, network):
        """Strict mode passes over MIDAS: link regions partition exactly,
        so a DuplicateVisitError would reveal a broken partition."""
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1, 1]), 5)
        for r in (0, 2, SLOW):
            run_ripple(overlay.random_peer(), handler, r,
                       restriction=overlay.domain(), strict=True)

    def test_duplicate_visit_raises_when_manufactured(self):
        from repro.net.context import QueryContext

        ctx = QueryContext(strict=True)
        assert ctx.begin_processing(1)
        with pytest.raises(DuplicateVisitError):
            ctx.begin_processing(1)

    def test_duplicate_visit_tolerated_when_lenient(self):
        from repro.net.context import QueryContext

        ctx = QueryContext(strict=False)
        assert ctx.begin_processing(1)
        assert not ctx.begin_processing(1)

    def test_revisitable_peers_do_not_raise(self):
        from repro.net.context import QueryContext

        ctx = QueryContext(strict=True)
        ctx.begin_processing(1)
        ctx.revisitable.add(1)
        assert not ctx.begin_processing(1)
