"""The memoised link cut against the array pass it replaced.

``LinkTable.cut`` keeps one cut per restriction box, and ``_candidates``
reads the overlaps of a suffix cut off the links' own regions, bounding
them once for order and relevance.  The pass every visit used to run —
clip every link box, keep the non-empty overlaps, bound own boxes for
order and overlaps for relevance — stays here as the reference.
Candidate lists, forwarded sequences and answers must equal it on object
MIDAS under churn (both link policies), on ``midas_arena`` and on
``from_overlay`` mirrors, for restrictions that are tree nodes and for
arbitrary boxes: partial overlaps, shared faces, zero volume.

The other lean parts of the top-k visit have their references here too:
the generic ``_merge`` for the two-state one, the score mask for the
prefix ``scoring_at_least`` and ``top_scoring`` for ``top_scores``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.framework as framework
from repro import (LinearScore, MidasOverlay, NearestScore, SkylineHandler,
                   TopKHandler, run_ripple)
from repro.common.geometry import Rect
from repro.common.store import LocalStore
from repro.core.framework import Link, LinkTable, _candidates
from repro.core.regions import RectRegion
from repro.obs.trace import QueryTrace
from repro.overlays import from_overlay, midas_arena, run_wavefront
from repro.overlays.arena import prime_topk_wave
from repro.queries.topk import TopKState


# -- the references -------------------------------------------------------

def reference_candidates(links, restriction, handler, r):
    """The array pass as every visit of a bounded table used to run it."""
    bounds = links.bounds()
    lo = np.maximum(bounds[0], restriction.rect.lo)
    hi = np.minimum(bounds[1], restriction.rect.hi)
    keep = np.logical_and.reduce(lo < hi, axis=1).nonzero()[0]
    if not keep.size:
        return []
    if r > 0:
        own = handler.box_bounds(bounds[0][keep], bounds[1][keep])
        priority = [handler.link_priority(links[i].region)
                    for i in keep.tolist()] if own is None \
            else (-own).tolist()
        keep = keep[sorted(range(len(keep)), key=priority.__getitem__)]
    lo, hi = lo[keep], hi[keep]
    boxes = zip(map(tuple, lo.tolist()), map(tuple, hi.tolist()))
    overlap = handler.box_bounds(lo, hi)
    if overlap is None:
        return [(i, RectRegion(Rect(*box)), None)
                for i, box in zip(keep.tolist(), boxes)]
    return list(zip(keep.tolist(), boxes, overlap.tolist()))


def reference_merge(handler, states):
    """``TopKHandler._merge`` before it special-cased two states."""
    scores = sorted((s for state in states for s in state.scores),
                    reverse=True)[: handler.k]
    floors = [state.floor for state in states]
    merged = TopKState(tuple(scores), max(floors, default=-math.inf))
    return TopKState(merged.scores,
                     max(merged.floor, handler.tau(merged)))


def normalised(table, candidates):
    """``(index, overlap lo, overlap hi, bound)`` whatever the overlap's
    form (own region, left to the forward, clipped pair, fresh region)."""
    out = []
    for i, sub, bound in candidates:
        sub = sub or table.region(i)
        rect = sub.rect if isinstance(sub, RectRegion) else Rect(*sub)
        assert all(type(v) is float for v in rect.lo + rect.hi)
        out.append((i, rect.lo, rect.hi, bound))
    return out


# -- networks, restrictions, handlers -------------------------------------

#: Coarse on purpose: link boxes are dyadic, so boxes on this grid abut,
#: coincide, nest and cut them partially all the time.
GRID = st.sampled_from([0.0, 0.125, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0])


@st.composite
def boxes(draw, dims):
    """An arbitrary box; any extent may be zero."""
    sides = [sorted((draw(GRID), draw(GRID))) for _ in range(dims)]
    return Rect(tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides))


def grown_midas(dims, size, seed, policy):
    overlay = MidasOverlay(dims, size=1, seed=seed, link_policy=policy,
                           join_policy="data")
    overlay.load(np.random.default_rng(seed).random((60, dims)) * 0.999)
    overlay.grow_to(size)
    return overlay


@st.composite
def networks(draw):
    """``(peers, zone of peer, every link box)`` of an object MIDAS, an
    arena or a mirror; the boxes are read without touching a lazy table."""
    dims = draw(st.integers(1, 3))
    size = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(["midas", "arena", "mirror"]))
    if kind == "arena":
        arena = midas_arena(
            size, dims=dims, seed=seed,
            data=np.random.default_rng(seed).random((60, dims)) * 0.999,
            precompute_links=draw(st.booleans()))
        return (list(arena.peers()), lambda peer: arena.zone(peer.index),
                link_boxes(arena.decode_links(i) for i in range(size)))
    overlay = grown_midas(dims, size, seed,
                          draw(st.sampled_from(["random", "boundary"])))
    zones = {peer.peer_id: peer.leaf.rect for peer in overlay.peers()}
    peers = overlay.peers() if kind == "midas" \
        else list(from_overlay(overlay).peers())
    return (list(peers), lambda peer: zones[peer.peer_id],
            link_boxes(peer.links() for peer in overlay.peers()))


def link_boxes(tables):
    return {link.region.rect for table in tables for link in table}


def node_boxes(boxes, zone):
    """The tree nodes a query can carry to a peer with ``zone``: every link
    box of the network that holds the zone (its ancestors), and the
    domain."""
    found = {Rect.unit(zone.dims)}
    found.update(box for box in boxes if box.contains_rect(zone))
    return sorted(found, key=lambda rect: (rect.lo, rect.hi))


@st.composite
def handlers(draw, dims):
    if draw(st.booleans()):
        return SkylineHandler(dims, constraint=draw(st.one_of(
            st.none(), st.just(Rect((0.25,) * dims, (0.75,) * dims)))))
    if draw(st.booleans()):
        fn = LinearScore(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                       min_size=dims, max_size=dims)))
    else:
        fn = NearestScore(draw(st.lists(GRID, min_size=dims, max_size=dims)),
                          p=draw(st.sampled_from([1, 2, float("inf")])))
    return TopKHandler(fn, 3)


def assert_candidates_equal(peer, restriction, handler, r):
    table = peer.links()
    if not len(table):                  # a peer with no links
        assert _candidates(table, restriction, handler, r) == []
        return
    region = RectRegion(restriction)
    want = normalised(table, reference_candidates(table, region, handler, r))
    for _ in range(2):                  # first touch, then the memo
        got = _candidates(table, region, handler, r)
        assert normalised(table, got) == want
        assert len(table._cuts) <= len(table) + 1
    cut = table.cut(region)
    if isinstance(cut, int):
        # A suffix cut hands on the links' own regions: an object table's
        # own region objects; on a lazy table the regions built so far,
        # all of them for a handler that asks about regions, the others
        # only once the link is forwarded over.
        assert sorted(i for i, _, _ in got) == list(range(cut, len(table)))
        for i, sub, bound in got:
            if sub is None:
                assert bound is not None and table._links[i] is None
            else:
                assert sub is table.region(i)
            if not table._targets:
                assert sub is table[i].region


class TestCandidatesEqualTheArrayPass:
    @given(st.data(), networks(), st.sampled_from([0, 2]))
    @settings(max_examples=60, deadline=None)
    def test_node_and_arbitrary_restrictions(self, data, network, r):
        peers, zone_of, all_boxes = network
        dims = zone_of(peers[0]).dims
        handler = data.draw(handlers(dims))
        for peer in peers[:8]:
            restrictions = node_boxes(all_boxes, zone_of(peer)) + data.draw(
                st.lists(boxes(dims), max_size=3))
            for restriction in restrictions:
                assert_candidates_equal(peer, restriction, handler, r)

    @given(st.integers(1, 3), st.integers(2, 12), st.integers(0, 10 ** 6),
           st.sampled_from(["random", "boundary"]),
           st.lists(st.tuples(st.sampled_from(["join", "leave"]),
                              st.integers(0, 2 ** 30)),
                    min_size=1, max_size=8),
           st.sampled_from([0, 2]))
    @settings(max_examples=30, deadline=None)
    def test_memos_stay_valid_through_churn(self, dims, size, seed, policy,
                                            script, r):
        """Tables keep (or, retargeted, carry) their memo across joins
        and leaves; what it holds must still be the pass's cut."""
        overlay = grown_midas(dims, size, seed, policy)
        both = (TopKHandler(LinearScore([1.0] * dims), 3),
                SkylineHandler(dims))

        def check():
            peers = overlay.peers()
            all_boxes = link_boxes(peer.links() for peer in peers)
            for peer in peers:
                for restriction in node_boxes(all_boxes, peer.leaf.rect)[:4]:
                    for handler in both:
                        assert_candidates_equal(peer, restriction, handler, r)

        check()
        for op, draw in script:
            if op == "join":
                overlay.join()
            elif len(overlay) > 2:
                peers = overlay.peers()
                overlay.leave(peers[draw % len(peers)])
            check()


class TestForwardsEqualTheArrayPass:
    @given(st.data(), networks(), st.sampled_from([0, 2]))
    @settings(max_examples=40, deadline=None)
    def test_traces_and_answers(self, data, network, r):
        """Whole queries — every visit's forwarded ``(target, region)``
        sequence is in the trace — with the memo, after clearing it, and
        with every visit running the reference pass."""
        peers, zone_of, _ = network
        dims = zone_of(peers[0]).dims
        handler = data.draw(handlers(dims))
        restriction = data.draw(st.one_of(
            st.just(Rect.unit(dims)), boxes(dims)))
        initiator = peers[data.draw(st.integers(0, len(peers) - 1))]

        def run():
            trace = QueryTrace()
            result = run_ripple(initiator, handler, r,
                                restriction=RectRegion(restriction),
                                sink=trace)
            return trace.spans, trace.events, result.stats, \
                repr(result.answer)

        memo = run()
        for peer in peers:
            peer.links()._cuts.clear()
        cleared = run()
        original = framework._candidates

        def the_pass(links, restriction, handler, r):
            if not len(links):               # no links at all
                return original(links, restriction, handler, r)
            # A pair became a fresh region when its link was forwarded.
            return [(i, sub if isinstance(sub, RectRegion)
                     else RectRegion(Rect(*sub)), bound) for i, sub, bound
                    in reference_candidates(links, restriction, handler, r)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(framework, "_candidates", the_pass)
            passed = run()
        assert memo == cleared == passed


class TestSeededCuts:
    @given(st.data(), st.integers(1, 3), st.integers(1, 40),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_a_batch_seeds_exactly_the_suffix_cuts(self, data, dims, size,
                                                   seed):
        """``link_tables(indexes, areas)`` memoises each table's cut of
        its area where that cut is a suffix — every tree node holding
        the peer — and leaves any other cut to the first ``cut``."""
        arena = midas_arena(size, dims=dims, seed=seed)
        all_boxes = link_boxes(arena.decode_links(i) for i in range(size))
        indexes = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                     max_size=12))
        areas = [RectRegion(data.draw(st.one_of(
            st.sampled_from(node_boxes(all_boxes, arena.zone(i))),
            boxes(dims)))) for i in indexes]
        for index, table, area in zip(indexes,
                                      arena.link_tables(indexes, areas),
                                      areas):
            want = arena.link_table(index).cut(area)
            seeded = table._cuts.get((area.rect.lo, area.rect.hi))
            assert seeded == (want if isinstance(want, int) else None)
            if area.rect in node_boxes(all_boxes, arena.zone(index)):
                assert seeded is not None


class TestMemo:
    def table(self):
        overlay = grown_midas(2, 16, 4, "random")
        return max((peer.links() for peer in overlay.peers()), key=len)

    def test_holds_at_most_one_more_box_than_links_oldest_out(self):
        table = self.table()
        size = len(table) + 1
        restrictions = [Rect((0.0, 0.0), (x, 1.0))
                        for x in np.linspace(0.05, 1.0, 3 * size).tolist()]
        for n, rect in enumerate(restrictions):
            table.cut(RectRegion(rect))
            assert len(table._cuts) == min(n + 1, size)
        assert list(table._cuts) == [(rect.lo, rect.hi)
                                     for rect in restrictions[-size:]]
        # An evicted box is cut again, to the same result.
        first = restrictions[0]
        again = table.cut(RectRegion(first))
        fresh = LinkTable(list(table)).cut(RectRegion(first))
        assert type(again) is type(fresh)
        if isinstance(again, tuple):
            keep, subs, lo, hi, starts = again
            assert (keep, subs, starts) == fresh[:2] + (fresh[4],)
            assert np.array_equal(lo, fresh[2])
            assert np.array_equal(hi, fresh[3])
        else:
            assert again == fresh

    def test_node_boxes_cut_to_suffixes_others_get_clipped(self):
        overlay = grown_midas(2, 16, 4, "random")
        for peer in overlay.peers():
            table = peer.links()
            node = peer.leaf
            while node is not None:
                cut = table.cut(RectRegion(node.rect))
                # The links inside an ancestor are the deeper ones.
                assert cut == len(table) - sum(
                    node.rect.contains_rect(link.region.rect)
                    for link in table)
                node = node.parent
        table = self.table()
        partial = Rect((0.1, 0.1), (0.9, 0.9))
        keep, subs, lo, hi, starts = table.cut(RectRegion(partial))
        assert len(keep) == len(subs) == len(lo) == len(hi) > 0
        assert starts is None
        assert table.cut(RectRegion(Rect((0.5, 0.0), (0.5, 1.0)))) \
            == len(table)

    def test_retargeted_tables_carry_the_memo(self):
        table = self.table()
        table.cut(RectRegion(Rect.unit(2)))
        copy = table.retargeted({0: table[1].peer})
        assert copy._cuts is table._cuts
        assert copy[0].peer is table[1].peer

    def test_region_builds_no_link(self):
        arena = midas_arena(37, dims=2, seed=5)
        table = arena.peer(9).links()
        region = table.region(2)
        assert table._links == [None] * len(table)
        assert table.region(2) is region
        assert table[2].region is region
        assert region == arena.decode_links(9)[2].region

    def test_a_topk_visit_builds_regions_for_forwards_only(self, monkeypatch):
        """A lazy table's own regions wait for the forward under a
        bounded handler; every forward still hands on a region."""
        rng = np.random.default_rng(3)
        arena = midas_arena(256, dims=2, seed=3,
                            data=rng.random((2000, 2)) * 0.999)
        domain = arena.domain()
        built = []
        init = RectRegion.__init__
        monkeypatch.setattr(RectRegion, "__init__", lambda self, *args:
                            built.append(1) or init(self, *args))
        trace = QueryTrace()
        result = run_ripple(arena.peer(7), TopKHandler(LinearScore([1, 1]), 3),
                            0, restriction=domain, sink=trace)
        assert 0 < len(built) <= result.stats.forward_messages
        assert all(span.region.startswith("RectRegion")
                   for span in trace.spans)


# -- the lean top-k visit -------------------------------------------------

SCORES = st.sampled_from([1.0, 0.5, 0.25, 0.0, -0.0, -0.25, -1.0])


@st.composite
def topk_states(draw, k):
    scores = sorted(draw(st.lists(SCORES, max_size=k)), reverse=True)
    floor = draw(st.sampled_from([-math.inf, -0.5, -0.0, 0.0, 0.25, 1.0]))
    return TopKState(tuple(scores), floor)


class TestTwoStateMerge:
    @given(st.data(), st.sampled_from([1, 3, 10]))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_generic_merge_bit_for_bit(self, data, k):
        handler = TopKHandler(LinearScore([1.0]), k)
        a, b, c = (data.draw(topk_states(k)) for _ in range(3))
        # repr tells -0.0 from 0.0 and keeps the order of tied entries.
        assert repr(handler._merge((a, b))) == \
            repr(reference_merge(handler, (a, b)))
        assert repr(handler.compute_global_state(a, b)) == \
            repr(reference_merge(handler, (a, b)))
        for states in ((), (a,), (a, b, c)):
            assert repr(handler.update_local_state(states)) == \
                repr(reference_merge(handler, states))

    def test_signed_zero_ties_keep_the_first_side_first(self):
        handler = TopKHandler(LinearScore([1.0]), 2)
        merged = handler._merge((TopKState((0.5, 0.0)), TopKState((-0.0,))))
        assert repr(merged.scores) == "(0.5, 0.0)"
        merged = handler._merge((TopKState((0.5,)), TopKState((-0.0, 0.0))))
        assert repr(merged.scores) == "(0.5, -0.0)"


def score_mask(store, fn, tau):
    """The mask ``scoring_at_least`` used before it read the index."""
    if len(store) == 0:
        return []
    rows = store.array[fn.score_batch(store.array) >= tau]
    return list(map(tuple, rows.tolist()))


class TestScoringAtLeastPrefix:
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                              st.sampled_from([0.0, 0.25, 0.5, 0.75])),
                    max_size=30),
           st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                    min_size=2, max_size=2),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_rows_in_the_same_order_as_the_mask(self, points, weights,
                                                     view):
        fn = LinearScore(weights)
        store = LocalStore.view_of(np.array(points, dtype=float).reshape(
            -1, 2)) if view and points else LocalStore(2, points)
        scores = fn.score_batch(store.array).tolist() if points else []
        # Every stored score is a tie at its own tau.
        for tau in [-math.inf, math.inf, -0.0, 0.3, *scores]:
            got = store.scoring_at_least(fn, tau)
            assert got.shape == (len(got), 2)
            assert list(map(tuple, got.tolist())) == score_mask(store, fn,
                                                                tau)
            # A copy: a later insert cannot rewrite a shipped answer.
            assert not np.shares_memory(got, store.array)

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                              st.sampled_from([-0.0, 0.0, 0.5])),
                    max_size=30),
           st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                    min_size=2, max_size=2),
           st.sampled_from([0, 1, 3, 40]))
    @settings(max_examples=200, deadline=None)
    def test_the_score_prefix_is_top_scorings_scores(self, points, weights,
                                                     limit):
        fn = LinearScore(weights)
        store = LocalStore(2, points)
        scores = fn.score_batch(store.array).tolist() if points else []
        for above in [-math.inf, math.inf, -0.0, 0.0, 0.3, *scores]:
            want = [s for s, _ in store.top_scoring(fn, limit, above=above)]
            got = store.top_scores(fn, limit, above=above)
            # repr tells -0.0 from 0.0.
            assert repr(got) == repr(tuple(want))

    def test_an_empty_store_answers_nothing(self):
        for store in (LocalStore(2), LocalStore.view_of(np.empty((0, 2)))):
            got = store.scoring_at_least(LinearScore([1, 1]), -math.inf)
            assert got.shape == (0, 2)
            assert store.top_scores(LinearScore([1, 1]), 3) == ()

    @given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75]),
                              st.sampled_from([-0.0, 0.0, 0.5])),
                    max_size=30),
           st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                    min_size=2, max_size=2),
           st.sampled_from(["computed", "view", "primed", "inserted",
                            "extracted"]))
    @settings(max_examples=300, deadline=None)
    def test_every_index_producer_scans_alike(self, points, weights,
                                              producer):
        """Whoever built the score index — the store, a view, the wave
        kernel, or the store again after a mutation dropped a warm one —
        the threshold scans cut it where the score mask does, ties at
        ``tau`` and signed zeros included."""
        fn = LinearScore(weights)
        array = np.array(points, dtype=float).reshape(-1, 2)
        if producer == "view":
            store = LocalStore.view_of(array)
        elif producer == "primed":
            store = LocalStore(2, points)
            prime_topk_wave(fn, [LocalStore(2, [(0.5, 0.5)]), store])
        else:
            store = LocalStore(2, points[:-1] if producer == "inserted"
                               else points)
            store.top_scores(fn, 3)                  # a warm index
            if producer == "inserted" and points:
                store.insert(points[-1])
            elif producer == "extracted":
                store.extract(Rect((-1.0, -1.0), (0.5, 1.0)))
        misses = store.cache_misses
        scores = fn.score_batch(store.array).tolist()
        best_first = sorted(range(len(scores)), key=lambda i: -scores[i])
        for tau in [-math.inf, math.inf, -0.0, 0.0, 0.3, *scores]:
            got = store.scoring_at_least(fn, tau)
            assert got.shape == (len(got), 2)
            assert list(map(tuple, got.tolist())) == score_mask(store, fn,
                                                                tau)
            assert not np.shares_memory(got, store.array)
            for limit in (1, 3, 40):
                want = tuple(scores[i] for i in best_first
                             if scores[i] >= tau)[:limit]
                # repr tells -0.0 from 0.0.
                assert repr(store.top_scores(fn, limit, above=tau)) \
                    == repr(want)
        if producer == "primed" and points:
            assert store.cache_misses == misses      # the primed entry


# -- lazy tables ------------------------------------------------------------

class TestSkylineBuildsOnlyTheLinksItCrosses:
    @pytest.mark.parametrize("r", [0, 2])
    def test_a_skyline_builds_only_the_links_it_crosses(self, monkeypatch,
                                                        r):
        rng = np.random.default_rng(8)
        arena = midas_arena(512, dims=3, seed=8,
                            data=rng.random((4000, 3)) * 0.999,
                            precompute_links=True)
        built, regions = [], []
        for cls, log in ((Link, built), (RectRegion, regions)):
            monkeypatch.setattr(cls, "__init__", lambda self, *args,
                                init=cls.__init__, log=log, **kwargs:
                                log.append(1) or init(self, *args, **kwargs))
        handler = SkylineHandler(3, constraint=Rect((0.1,) * 3, (0.6,) * 3))
        initiator = arena.peer(300)
        if r == 0:
            result = run_wavefront(initiator, handler,
                                   restriction=arena.domain())
        else:
            result = run_ripple(initiator, handler, r,
                                restriction=arena.domain())
        assert result.stats.processed > 5
        # No ``Link`` at all, and a region only for a link judged (and
        # the domain): a share of the links the touched tables hold.
        assert not built
        assert 0 < len(regions) < sum(len(arena.peer(i).links())
                                      for i in arena._views) / 2
