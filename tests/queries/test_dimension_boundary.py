"""A query whose dimensionality differs from its restriction's fails at
the entry point, with a ``ValueError`` naming both, before any peer,
event or kernel is touched."""

import numpy as np
import pytest

from repro import (CacheDirectory, LinearScore, MidasOverlay, RangeHandler,
                   Rect, SkylineHandler, TopKHandler, event_driven_ripple,
                   resilient_ripple, run_ripple)
from repro.net.context import QueryResult, QueryStats
from repro.net.scheduler import QueryEngine
from repro.queries.skyline import distributed_skyline
from repro.queries.topk import distributed_topk


def network():
    overlay = MidasOverlay(2, size=8, seed=3)
    overlay.load(np.random.default_rng(3).random((60, 2)) * 0.999)
    return overlay


def submit(handler):
    def run(overlay):
        engine = QueryEngine()
        engine.submit(overlay.peers()[0], handler,
                      restriction=overlay.domain())
        engine.run()
    return run


#: A 3-d range box; its handler reads 3-d tuples.
BOX = Rect((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))

DONE = QueryResult([], QueryStats())


def cached(call):
    """``call(cache, overlay, peer_ids)`` on a directory that already
    holds a 2-d range entry covering the whole domain."""
    def run(overlay):
        cache = CacheDirectory(overlay)
        peer_ids = [peer.peer_id for peer in overlay.peers()]
        assert cache.store(RangeHandler(Rect((0.0, 0.0), (0.9, 0.9))),
                           overlay.domain(), DONE, peer_ids)
        call(cache, overlay, peer_ids)
    return run


def submit_at(handler):
    def run(overlay):
        engine = QueryEngine()
        engine.submit_at(3, overlay.peers()[0], handler,
                         restriction=overlay.domain())
        engine.run()
    return run


@pytest.mark.parametrize("entry", [
    submit(TopKHandler(LinearScore([1, 1, 1]), 3)),
    submit_at(TopKHandler(LinearScore([1, 1, 1]), 3)),
    submit(SkylineHandler(3)),
    submit_at(SkylineHandler(3)),
    lambda overlay: distributed_skyline(overlay.peers()[0], 3,
                                        restriction=overlay.domain()),
    lambda overlay: run_ripple(overlay.peers()[0], SkylineHandler(3), 0,
                               restriction=overlay.domain()),
    lambda overlay: distributed_topk(overlay.peers()[0],
                                     LinearScore([1, 1, 1]), 3,
                                     restriction=overlay.domain()),
    lambda overlay: run_ripple(overlay.peers()[0],
                               TopKHandler(LinearScore([1, 1, 1]), 3), 0,
                               restriction=overlay.domain()),
    lambda overlay: event_driven_ripple(overlay.peers()[0],
                                        SkylineHandler(3), 2,
                                        restriction=overlay.domain()),
    lambda overlay: resilient_ripple(overlay.peers()[0],
                                     TopKHandler(LinearScore([1, 1, 1]), 3),
                                     restriction=overlay.domain()),
    submit(RangeHandler(BOX)),
    lambda overlay: run_ripple(overlay.peers()[0], RangeHandler(BOX), 0,
                               restriction=overlay.domain()),
    cached(lambda cache, overlay, _: cache.lookup(RangeHandler(BOX),
                                                  overlay.domain())),
    cached(lambda cache, overlay, peer_ids: cache.store(
        RangeHandler(BOX), overlay.domain(), DONE, peer_ids)),
], ids=["submit-topk", "submit_at-topk", "submit-skyline",
        "submit_at-skyline", "distributed_skyline",
        "run_ripple-skyline", "distributed_topk", "run_ripple",
        "event_driven_ripple", "resilient_ripple", "submit-range",
        "run_ripple-range", "cache.lookup", "cache.store"])
def test_a_3d_query_on_a_2d_network_is_a_value_error(monkeypatch, entry):
    overlay = network()

    def touched(*args, **kwargs):
        raise AssertionError("the query started")

    monkeypatch.setattr(type(overlay.peers()[0]), "links", touched)
    with pytest.raises(ValueError, match=r"3-d tuples.*is 2-d"):
        entry(overlay)
