"""The batched link step of a visit equals the per-link one.

``_Visit`` intersects every link of a box-bounded table with its
restriction area in one array pass; tables without bounds take
``Region.intersect`` link by link.  The per-link loop — intersect, then
ask the handler against the state as it stands — stays here as the
oracle, and both must yield the same ``(target, sub-region)`` sequence.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import LinearScore, NearestScore, SkylineHandler, TopKHandler
from repro.common.geometry import Rect
from repro.common.store import LocalStore
from repro.core.framework import Link, LinkTable, _Visit
from repro.core.handler import QueryHandler
from repro.core.regions import RectRegion
from repro.net.context import QueryContext
from tests.netlib import build_network

#: A coarse grid, so boxes abut, coincide and nest all the time.
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def boxes(draw, dims):
    """A box on the grid; any extent may be zero."""
    sides = [sorted((draw(GRID), draw(GRID))) for _ in range(dims)]
    return Rect(tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides))


@st.composite
def tables(draw):
    """``(link boxes, restriction box)`` in 1, 2 or 4 dimensions."""
    dims = draw(st.sampled_from([1, 2, 4]))
    links = draw(st.lists(boxes(dims), min_size=1, max_size=8))
    restriction = draw(st.one_of(
        boxes(dims), st.sampled_from(links), st.just(Rect.unit(dims))))
    return links, restriction


class CountingHandler(QueryHandler):
    """States are integers; every fold moves the forwarding state, and
    whether a region is relevant depends on both."""

    def initial_state(self):
        return 0

    def compute_local_state(self, store, global_state):
        return 0

    def compute_global_state(self, global_state, local_state):
        return global_state + local_state

    def update_local_state(self, states):
        return sum(states)

    def compute_local_answer(self, store, local_state):
        return []

    def is_link_relevant(self, region, global_state):
        (rect,) = region.cover()
        return (int(4 * sum(rect.lo + rect.hi)) + global_state) % 3 != 0

    def link_priority(self, region):
        # Coarse on purpose: ties must keep table order.
        return region.cover()[0].lo[0]

    def finalize(self, answers):
        return []


def fake_peer(peer_id, links=()):
    return SimpleNamespace(peer_id=peer_id, store=LocalStore(1),
                           links=lambda: links)


def stepped(visit):
    """Drive ``visit`` alone: every forward is answered at once by a
    child state of 1, as a sequential parent would see it."""
    out = []
    for target, sub in iter(visit.next_forward, None):
        out.append((target, sub))
        visit.fold([1], 0)
    return out


def per_link(handler, links, restriction, r, state, fold=lambda state: state):
    """The scalar step: sort, intersect one link, ask the handler.

    ``fold`` is what a child's response does to the forwarding state of
    a sequential visit before it looks at the next link."""
    if r > 0:
        links = sorted(links, key=lambda ln: handler.link_priority(ln.region))
    out = []
    for link in links:
        sub = link.region.intersect(restriction)
        if sub is not None and handler.is_link_relevant(sub, state):
            out.append((link.peer, sub))
            if r > 0:
                state = fold(state)
    return out


class TestBatchedEqualsPerLink:
    @given(tables(), st.sampled_from([0, 3]))
    @settings(max_examples=300, deadline=None)
    def test_same_forwards_in_the_same_order(self, table, r):
        rects, restriction = table
        links = LinkTable(Link(fake_peer(i), RectRegion(rect))
                          for i, rect in enumerate(rects))
        assert links.bounds() is not None
        handler = CountingHandler()
        visit = _Visit(QueryContext(strict=True), handler,
                       fake_peer("visited", links), 0,
                       RectRegion(restriction), r, "initiator", 0)
        got = stepped(visit)
        assert got == per_link(handler, links, RectRegion(restriction), r, 0,
                               fold=lambda state: state + 1)
        for _, sub in got:
            assert all(type(v) is float for v in sub.rect.lo + sub.rect.hi)

    def test_abutting_and_flat_overlaps_are_empty(self):
        links = LinkTable([
            Link(fake_peer(0), RectRegion(Rect((0.0, 0.0), (0.5, 1.0)))),
            Link(fake_peer(1), RectRegion(Rect((0.5, 0.0), (1.0, 1.0)))),
            Link(fake_peer(2), RectRegion(Rect((0.5, 0.5), (1.0, 0.5))))])
        handler = SkylineHandler(2)
        visit = _Visit(QueryContext(strict=True), handler,
                       fake_peer("visited", links), handler.initial_state(),
                       RectRegion(Rect((0.5, 0.0), (1.0, 1.0))), 0,
                       "initiator", 0)
        assert [(t.peer_id, sub) for t, sub in stepped(visit)] == [
            (1, RectRegion(Rect((0.5, 0.0), (1.0, 1.0))))]

    def test_a_plain_list_of_box_links_takes_the_per_link_loop(self):
        links = [Link(fake_peer(0), RectRegion(Rect((0.0,), (0.75,))))]
        visit = _Visit(QueryContext(strict=True), CountingHandler(),
                       fake_peer("visited", links), 0,
                       RectRegion(Rect((0.25,), (1.0,))), 0, "initiator", 0)
        assert [sub for _, sub in stepped(visit)] == [
            RectRegion(Rect((0.25,), (0.75,)))]


class TestTablesWithoutBounds:
    @pytest.mark.parametrize("kind, handler", [
        ("chord", TopKHandler(NearestScore((0.4,)), 3)),
        ("skipgraph", TopKHandler(LinearScore((1.0,)), 3)),
        ("can", SkylineHandler(2)),
    ])
    @pytest.mark.parametrize("r", [0, 2])
    def test_arcs_and_frustums_traverse_link_by_link(self, kind, handler, r):
        overlay = build_network(kind, 5, peers=16, tuples=80)
        for peer in overlay.peers()[:4]:
            links = peer.links()
            assert isinstance(links, LinkTable) and links.bounds() is None
            received = handler.initial_state()
            visit = _Visit(QueryContext(strict=False), handler, peer,
                           received, overlay.domain(), r, peer.peer_id, 0)
            forwarding = handler.compute_global_state(
                received, handler.compute_local_state(peer.store, received))
            assert list(iter(visit.next_forward, None)) == per_link(
                handler, links, overlay.domain(), r, forwarding)

    def test_midas_tables_carry_bounds(self):
        overlay = build_network("midas", 5, peers=16, tuples=80)
        lo, hi = overlay.peers()[3].links().bounds()
        assert lo.shape == hi.shape == (len(overlay.peers()[3].links()), 2)
