"""The work-stack evaluator on overlays deeper than the interpreter stack.

A sequential (``r = SLOW``) pass over a chain-shaped overlay recurses —
in the textbook formulation — to a depth equal to the network size.  The
framework must survive that on a *lowered* interpreter recursion limit,
without touching ``sys.setrecursionlimit`` itself (the old
module-import-time mutation was a process-wide side effect).
"""

import sys

import numpy as np
import pytest

from repro.common.geometry import Rect
from repro.common.store import LocalStore
from repro.core.framework import SLOW, Link, run_ripple
from repro.core.regions import RectRegion
from repro.queries.rangeq import RangeHandler


class ChainPeer:
    """Peer i owns the 1-d slice [i/n, (i+1)/n) and links only onward."""

    def __init__(self, index: int, n: int):
        self.peer_id = index
        self.index = index
        self.n = n
        self.store = LocalStore(1)
        self.store.insert(((index + 0.5) / n,))
        self.next: "ChainPeer | None" = None

    def links(self):
        if self.next is None:
            return []
        lo = (self.index + 1) / self.n
        return [Link(self.next, RectRegion(Rect((lo,), (1.0,))))]


def build_chain(n):
    peers = [ChainPeer(i, n) for i in range(n)]
    for a, b in zip(peers, peers[1:]):
        a.next = b
    return peers


def test_query_never_touches_recursion_limit():
    # The evaluator used to raise the global recursion limit on the fly;
    # with the work stack a query must leave it exactly where it was.
    peers = build_chain(50)
    handler = RangeHandler(Rect((0.0,), (1.0,)))
    domain = RectRegion(Rect((0.0,), (1.0,)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 123)
    try:
        run_ripple(peers[0], handler, SLOW, restriction=domain)
        assert sys.getrecursionlimit() == limit + 123
    finally:
        sys.setrecursionlimit(limit)


def test_slow_on_deep_chain_under_lowered_recursion_limit():
    n = 3_000
    peers = build_chain(n)
    handler = RangeHandler(Rect((0.0,), (1.0,)))
    domain = RectRegion(Rect((0.0,), (1.0,)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        result = run_ripple(peers[0], handler, SLOW, restriction=domain)
    finally:
        sys.setrecursionlimit(limit)
    assert sys.getrecursionlimit() == limit
    assert len(result.answer) == n
    assert result.stats.processed == n
    # Sequential chain traversal: n-1 forwards, each waited on in turn.
    assert result.stats.forward_messages == n - 1
    assert result.stats.latency == n - 1


@pytest.mark.parametrize("r", (0, 3, SLOW))
def test_chain_answers_identical_across_r(r):
    n = 200
    peers = build_chain(n)
    handler = RangeHandler(Rect((0.25,), (0.75,)))
    domain = RectRegion(Rect((0.0,), (1.0,)))
    result = run_ripple(peers[0], handler, r, restriction=domain)
    expected = sorted(((i + 0.5) / n,) for i in range(n)
                      if 0.25 <= (i + 0.5) / n < 0.75)
    assert result.answer == expected


def test_deep_chain_matches_shallow_reference():
    """The work-stack result equals a per-peer reference computation."""
    n = 1_200
    peers = build_chain(n)
    handler = RangeHandler(Rect((0.0,), (0.5,)))
    domain = RectRegion(Rect((0.0,), (1.0,)))
    result = run_ripple(peers[0], handler, SLOW, restriction=domain)
    data = np.array([((i + 0.5) / n,) for i in range(n)])
    expected = sorted(tuple(row) for row in data[data[:, 0] < 0.5])
    assert result.answer == expected
