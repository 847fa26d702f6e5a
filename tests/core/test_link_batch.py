"""The batched link step of a visit equals the per-link one.

``_Visit`` cuts every link table with its restriction area once per
restriction value — one array pass for boxes, ``Region.intersect`` per
link for arcs and frustums — and bounds the kept links over their cover
boxes.  The per-link loop — intersect, then ask the handler against the
state as it stands — stays here as the oracle, and both must yield the
same ``(target, sub-region)`` sequence.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import (LinearScore, NearestScore, SkylineHandler, TopKHandler,
                   run_ripple)
from repro.common.geometry import Interval, Rect
from repro.common.store import LocalStore
from repro.core.framework import (_CUT_CAP, Link, LinkTable, _candidates,
                                  _Visit)
from repro.core.handler import QueryHandler
from repro.core.regions import ArcRegion, RectRegion
from repro.net.context import QueryContext
from repro.obs.trace import QueryTrace
from repro.overlays import from_overlay
from repro.overlays.replication import ReplicaDirectory
from repro.queries.diversify import (DiversificationObjective,
                                     SingleDiversificationHandler)
from repro.queries.topk import TopKState
from tests.netlib import DIMS, build_network

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


def fake_peer(peer_id, links=(), points=()):
    dims = len(points[0]) if points else 1
    return SimpleNamespace(peer_id=peer_id, store=LocalStore(dims, points),
                           links=lambda: links)


def stepped(visit, child=1):
    """Drive ``visit`` alone: every forward is answered at once by the
    state ``child``, as a sequential parent would see it."""
    out = []
    for target, sub in iter(visit.next_forward, None):
        out.append((target, sub))
        visit.fold([child], 0)
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

    def test_a_plain_list_of_box_links_is_wrapped(self):
        links = [Link(fake_peer(0), RectRegion(Rect((0.0,), (0.75,))))]
        visit = _Visit(QueryContext(strict=True), CountingHandler(),
                       fake_peer("visited", links), 0,
                       RectRegion(Rect((0.25,), (1.0,))), 0, "initiator", 0)
        assert isinstance(visit.links, LinkTable)
        assert [sub for _, sub in stepped(visit)] == [
            RectRegion(Rect((0.25,), (0.75,)))]


@st.composite
def topk_handlers(draw, dims):
    """Top-k under a linear or a nearest-neighbour score whose ``f+``
    ties all the time on the grid; exact or approximate."""
    if draw(st.booleans()):
        fn = LinearScore(draw(st.lists(
            st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
            min_size=dims, max_size=dims)))
    else:
        fn = NearestScore(draw(st.lists(GRID, min_size=dims, max_size=dims)),
                          p=draw(st.sampled_from([1, 2, 3, float("inf")])))
    return TopKHandler(fn, 2, epsilon=draw(st.sampled_from([0.0, 0.25])))


#: Received states: nothing certified yet, or a floor somewhere in the
#: range the grid's bounds take.
FLOORS = st.sampled_from([float("-inf"), -1.5, -0.5, 0.0, 0.25, 0.5, 1.0])


class TestTopKBoundsEqualPerLink:
    """``TopKHandler.box_bounds`` decides like its scalar callbacks."""

    @given(st.data(), tables(), st.sampled_from([0, 3]), FLOORS)
    @settings(max_examples=300, deadline=None)
    def test_same_forwards_in_the_same_order(self, data, table, r, floor):
        rects, restriction = table
        handler = data.draw(topk_handlers(rects[0].dims))
        links = LinkTable(Link(fake_peer(i), RectRegion(rect))
                          for i, rect in enumerate(rects))
        received = TopKState((), floor)
        # Every response raises the certified threshold a little.
        child = TopKState((floor + 0.125, floor + 0.125)) \
            if floor > float("-inf") else TopKState((0.0, 0.0))
        visit = _Visit(QueryContext(strict=True), handler,
                       fake_peer("visited", links), received,
                       RectRegion(restriction), r, "initiator", 0)
        local = visit.local_state

        def fold(state):
            nonlocal local
            local = handler.update_local_state([local, child])
            return handler.compute_global_state(received, local)

        got = stepped(visit, child)
        assert got == per_link(handler, links, RectRegion(restriction), r,
                               handler.compute_global_state(received, local),
                               fold=fold)
        for _, sub in got:
            assert all(type(v) is float for v in sub.rect.lo + sub.rect.hi)

    #: B's own region bounds 0.75 and A's 1.0, but a restriction to
    #: [0, 0.5] cuts both overlaps down to a bound of 0.5.
    A = Rect((0.0,), (1.0,))
    B = Rect((0.25,), (0.75,))

    def forwards(self, rects, restriction, r, floor, epsilon=0.0):
        links = LinkTable(Link(fake_peer(name), RectRegion(rect))
                          for name, rect in rects)
        visit = _Visit(QueryContext(strict=True),
                       TopKHandler(LinearScore([1.0]), 1, epsilon=epsilon),
                       fake_peer("visited", links), TopKState((), floor),
                       RectRegion(restriction), r, "initiator", 0)
        return [(t.peer_id, sub.rect) for t, sub in stepped(
            visit, TopKState((floor,)))]

    def test_priority_reads_the_own_region_relevance_the_overlap(self):
        table = [("B", self.B), ("A", self.A)]
        cut = Rect((0.0,), (0.5,))
        # By overlap bound the two would tie and keep table order.
        assert self.forwards(table, cut, 3, 0.4) == [
            ("A", Rect((0.0,), (0.5,))), ("B", Rect((0.25,), (0.5,)))]
        assert self.forwards(table, cut, 0, 0.4) == [
            ("B", Rect((0.25,), (0.5,))), ("A", Rect((0.0,), (0.5,)))]
        # By own region both would still clear a threshold of 0.6.
        assert self.forwards(table, cut, 3, 0.6) == []
        assert self.forwards(table, cut, 0, 0.6) == []

    def test_equal_bounds_keep_table_order(self):
        twin = Rect((0.5,), (1.0,))
        table = [("B", self.B), ("twin", twin), ("A", self.A)]
        assert [name for name, _ in self.forwards(
            table, Rect.unit(1), 3, 0.0)] == ["twin", "A", "B"]

    def test_epsilon_raises_the_cutoff(self):
        table = [("A", self.A)]
        cut = Rect((0.0,), (0.5,))
        assert self.forwards(table, cut, 0, 0.4, epsilon=0.2) != []
        assert self.forwards(table, cut, 0, 0.4, epsilon=0.3) == []
        # A negative threshold slackens by its magnitude, as the scalar.
        assert self.forwards(table, cut, 0, -0.4, epsilon=0.3) != []


class TestTracesEqualPerLink:
    """A traced query records the same spans and events whether its
    visits read a bounded table or the same links as a plain list."""

    @given(st.data(), tables(), st.sampled_from([0, 1, 3]))
    @settings(max_examples=150, deadline=None)
    def test_process_and_forward_spans_are_identical(self, data, table, r):
        rects, restriction = table
        dims = rects[0].dims
        handler = data.draw(st.one_of(
            topk_handlers(dims), st.just(SkylineHandler(dims)),
            st.just(CountingHandler())))
        leaves = [fake_peer(i, points=[rect.lo, rect.center])
                  for i, rect in enumerate(rects)]
        links = LinkTable(Link(leaf, RectRegion(rect))
                          for leaf, rect in zip(leaves, rects))
        runs = []
        for table_form in (links, list(links)):
            root = fake_peer("root", table_form,
                             points=[restriction.center])
            trace = QueryTrace()
            result = run_ripple(root, handler, r,
                                restriction=RectRegion(restriction),
                                sink=trace)
            runs.append((trace.spans, trace.events, result.stats,
                         repr(result.answer)))
        assert runs[0] == runs[1]
        assert {span.kind for span in runs[0][0]} == {"process"}
        assert all(span.region is not None for span in runs[0][0])


def every_handler(dims):
    """Top-k under linear and nearest scoring, skyline, diversification."""
    query = (0.4,) * dims
    return [TopKHandler(LinearScore((1.0,) * dims), 3),
            *(TopKHandler(NearestScore(query, p=p), 3)
              for p in (1, 2, float("inf"))),
            SkylineHandler(dims),
            SingleDiversificationHandler(
                DiversificationObjective(query, lam=0.5),
                members=[(0.2,) * dims, (0.7,) * dims])]


def per_link_candidates(handler, links, restriction, r):
    """The per-link step: intersect every link, order by ``link_priority``
    of its own region (stable)."""
    out = [(i, sub) for i, link in enumerate(links)
           if (sub := link.region.intersect(restriction)) is not None]
    if r > 0:
        out.sort(key=lambda c: handler.link_priority(links[c[0]].region))
    return out


def received_regions(peers, domain):
    """Restrictions visits receive: the domain, link regions, and the
    overlaps of two links' regions (multi-piece arcs, frustum chains)."""
    regions = [domain] + [link.region for peer in peers
                          for link in peer.links()]
    overlaps = [a.intersect(b) for a in regions[1:9] for b in regions[9:17]]
    return regions + [region for region in overlaps if region is not None]


class TestEveryTableCarriesBounds:
    """Arcs and frustums are cut like boxes: one memoised cut per
    restriction value, bounded over cover boxes, and the candidates
    equal the per-link step's."""

    @pytest.mark.parametrize("mirror", [False, True],
                             ids=["object", "mirror"])
    @pytest.mark.parametrize("kind", ["chord", "skipgraph", "can"])
    @pytest.mark.parametrize("r", [0, 2])
    def test_same_as_per_link(self, r, kind, mirror):
        overlay = build_network(kind, 5, peers=16, tuples=80)
        network = from_overlay(overlay) if mirror else overlay
        peers = network.peers()[:6]
        restrictions = received_regions(peers, network.domain())
        for handler in every_handler(DIMS[kind]):
            for peer in peers:
                links = peer.links()
                lo, hi = links.bounds()
                assert lo.shape == hi.shape and lo.shape[0] >= len(links)
                for restriction in restrictions:
                    got = _candidates(links, restriction, handler, r)
                    want = per_link_candidates(handler, links, restriction, r)
                    assert [(i, sub) for i, sub, _ in got] == want
                    if not isinstance(handler, TopKHandler):
                        assert all(bound is None for _, _, bound in got)
                        continue
                    bounds = [bound for _, _, bound in got]
                    assert bounds == [handler._region_upper_bound(sub)
                                      for _, sub in want]
                    for floor in [float("-inf"), *bounds]:
                        state = TopKState((), floor)
                        cutoff = handler.bound_cutoff(state)
                        assert [bound >= cutoff for bound in bounds] == [
                            handler.is_link_relevant(sub, state)
                            for _, sub in want]

    @pytest.mark.parametrize("kind", ["chord", "skipgraph", "can"])
    def test_copies_share_the_memo(self, kind):
        overlay = build_network(kind, 5, peers=16, tuples=80)
        peer, other = overlay.peers()[2], overlay.peers()[7]
        table = peer.links()
        restriction = table[0].region.intersect(overlay.domain())
        cut = table.cut(restriction)
        copy = table.retargeted({0: other})
        assert copy._cuts is table._cuts and copy[0].peer is other
        assert copy.cut(restriction) is cut
        directory = ReplicaDirectory(overlay, copies=1)
        assert directory.repair(peer.peer_id, lambda _: True) is not None
        stand_in = directory.promote(peer.peer_id, lambda _: True)
        assert stand_in.links() is table
        assert stand_in.links().cut(restriction) is cut

    def test_arc_memos_keep_the_cap_oldest_out(self):
        links = LinkTable([Link(fake_peer(0), ArcRegion(((0.0, 0.5),))),
                           Link(fake_peer(1), ArcRegion(((0.5, 1.0),)))])
        arcs = [ArcRegion(((i / 200, 0.9),)) for i in range(_CUT_CAP + 5)]
        for n, arc in enumerate(arcs):
            links.cut(arc)
            assert len(links._cuts) == min(n + 1, _CUT_CAP)
        assert list(links._cuts) == arcs[-_CUT_CAP:]

    def test_a_wrapping_arc_is_two_boxes(self):
        arc = ArcRegion.from_interval(Interval(0.75, 0.25))
        links = LinkTable([Link(fake_peer(0), arc),
                           Link(fake_peer(1), ArcRegion(((0.25, 0.75),)))])
        lo, hi = links.bounds()
        assert lo.tolist() == [[0.75], [0.0], [0.25]]
        assert hi.tolist() == [[1.0], [0.25], [0.75]]
        handler = TopKHandler(LinearScore((1.0,)), 1)
        assert links.link_bounds(handler).tolist() == [1.0, 0.75]

    def test_midas_tables_carry_bounds(self):
        overlay = build_network("midas", 5, peers=16, tuples=80)
        lo, hi = overlay.peers()[3].links().bounds()
        assert lo.shape == hi.shape == (len(overlay.peers()[3].links()), 2)
