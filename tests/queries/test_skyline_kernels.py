"""The vectorized skyline kernels: brute-force oracles and caching.

Covers the antichain merge against a union-skyline oracle, the array-state
handler callbacks against the tuple-state ones they replaced, the
regression guarantee the store cache provides (one local-skyline
reduction per peer per query, none on a repeat query over a static
network), and the dims-major kernels, the one-pass Algorithm 13 and the
link test against the row-major forms they replaced, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.queries.skyline as sky
from repro.common.geometry import Rect, as_point, dominates
from repro.common.store import LocalStore
from repro.core.regions import RectRegion
from repro.overlays.arena import prime_skyline_wave
from repro.overlays.midas import MidasOverlay
from repro.queries.skyline import (SkylineHandler, distributed_skyline,
                                   merge_skylines, skyline_of,
                                   skyline_of_array, skyline_reference)


class TestMergeSkylines:
    def union_oracle(self, *collections):
        return sorted(skyline_of(
            [p for c in collections for p in c]))

    def test_cross_path_matches_union_skyline(self):
        # one big antichain against one small one — the cross-tensor path
        rng = np.random.default_rng(2)
        big = sorted(map(as_point, skyline_of_array(rng.random((5000, 3)))))
        small = sorted(map(as_point, skyline_of_array(rng.random((15, 3)))))
        # ratio > ~3.73 guarantees the dispatch picks the cross path
        assert len(big) > 4 * len(small)
        assert merge_skylines(big, small) == self.union_oracle(big, small)

    def test_many_parts_match_union_skyline(self):
        # 16 similar-sized antichains — the union-kernel path
        rng = np.random.default_rng(3)
        parts = [sorted(map(as_point, skyline_of_array(rng.random((80, 3)))))
                 for _ in range(16)]
        assert merge_skylines(*parts) == self.union_oracle(*parts)

    def test_result_is_antichain(self):
        rng = np.random.default_rng(4)
        parts = [sorted(map(as_point, skyline_of_array(rng.random((60, 2)))))
                 for _ in range(3)]
        merged = merge_skylines(*parts)
        assert not any(dominates(a, b)
                       for a in merged for b in merged if a != b)

    def test_degenerate_arities(self):
        assert merge_skylines() == []
        assert merge_skylines([]) == []
        assert merge_skylines([(0.3, 0.1)]) == [(0.3, 0.1)]
        assert merge_skylines([(0.2, 0.2)], [(0.2, 0.2)]) == [(0.2, 0.2)]
        assert merge_skylines((), [(0.1, 0.9)], ()) == [(0.1, 0.9)]


# -- the tuple-state handler this file's array one replaced ------------------
# Kept as the reference: states are sorted tuples of points, every fold a
# set-dedupe plus an all-pairs or cross-collection dominance reduction.

def reference_merge(*collections):
    seen, groups = set(), []
    for collection in collections:
        fresh = [p for p in dict.fromkeys(collection) if p not in seen]
        seen.update(fresh)
        if fresh:
            groups.append(fresh)
    total = len(seen)
    if total <= 1 or len(groups) == 1:
        return sorted(seen)
    cross = sum(len(group) * (total - len(group)) for group in groups)
    if 3 * cross >= total * total:
        union = [point for group in groups for point in group]
        survivors = skyline_of_array(np.asarray(union, dtype=float))
        return sorted(as_point(row) for row in survivors)
    arrays = [np.asarray(group, dtype=float) for group in groups]
    kept = []
    for i, (group, block) in enumerate(zip(groups, arrays)):
        other = np.concatenate([a for j, a in enumerate(arrays) if j != i])
        dominated = (other[None, :, :] <= block[:, None, :]).all(2).any(1)
        kept.extend(p for p, dead in zip(group, dominated) if not dead)
    return sorted(kept)


def reference_local_skyline(store, constraint):
    array = store.array
    if constraint is not None and len(array):
        array = array[np.all((array >= constraint.lo)
                             & (array < constraint.hi), axis=1)]
    return tuple(as_point(row) for row in skyline_of_array(array))


def reference_local_state(local, global_state):
    merged = set(reference_merge(global_state, local))
    return tuple(sorted(p for p in local if p in merged))


def reference_local_answer(local, local_state):
    return [p for p in local_state if p in set(local)]


def point_set(state):
    """A state (rows or points) as its sorted set of points."""
    return sorted({as_point(row) for row in state})


#: Few distinct values per axis: equal points across collections, equal
#: coordinate sums and ties on single axes all occur constantly.
coords = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75])


@st.composite
def worlds(draw):
    """``(dims, received antichain, stored tuples, child states, box)``."""
    dims = draw(st.sampled_from([1, 2, 3]))
    cloud = st.lists(st.tuples(*[coords] * dims), max_size=12)
    received = tuple(sorted(skyline_of(draw(cloud))))
    stored = draw(cloud)
    children = [tuple(sorted(skyline_of(draw(cloud))))
                for _ in range(draw(st.integers(0, 3)))]
    box = draw(st.one_of(
        st.none(), st.just(Rect((0.8,) * dims, (1.0,) * dims)),
        st.just(Rect((0.0,) * dims, (0.5,) * dims))))
    return dims, received, stored, children, box


class TestArrayStateEqualsTupleState:
    @given(worlds(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_callbacks_match_the_reference(self, world, as_rows):
        dims, received, stored, children, box = world
        store = LocalStore(dims, stored)
        handler = SkylineHandler(dims, constraint=box)
        take = (lambda s: np.asarray(s, dtype=float).reshape(-1, dims)) \
            if as_rows else (lambda s: s)
        local = reference_local_skyline(store, box)
        assert point_set(handler._local_skyline(store)) == sorted(set(local))

        local_state = handler.compute_local_state(store, take(received))
        expected_local = reference_local_state(local, received)
        assert point_set(local_state) == sorted(set(expected_local))
        assert len(local_state) == len(expected_local)  # repeats survive

        forwarded = handler.compute_global_state(take(received), local_state)
        expected_forwarded = reference_merge(received, expected_local)
        assert [as_point(row) for row in forwarded] == expected_forwarded
        # ... and without the memo of the pass above
        assert [as_point(row) for row in SkylineHandler(dims)
                .compute_global_state(take(received), take(expected_local))
                ] == expected_forwarded

        folded = handler.update_local_state(
            [local_state, *map(take, children)])
        expected_folded = reference_merge(expected_local, *children)
        assert [as_point(row) for row in folded] == expected_folded

        for state, expected in ((local_state, expected_local),
                                (folded, expected_folded)):
            answer = handler.compute_local_answer(store, state)
            assert [as_point(row) for row in answer] == \
                reference_local_answer(local, expected)
            assert handler.answer_size(answer) == len(answer)

        # answers are what compute_local_answer ships: rows
        shipped = [np.asarray(c, dtype=float).reshape(-1, dims)
                   for c in children]
        assert handler.finalize([local_state, *shipped]) == \
            sorted(skyline_of(list(expected_local)
                              + [p for c in children for p in c]))
        assert handler.finalize([]) == []

    @given(worlds())
    @settings(max_examples=100, deadline=None)
    def test_merge_skylines_matches_the_reference(self, world):
        _, received, _, children, _ = world
        merged = merge_skylines(received, *children)
        assert merged == reference_merge(received, *children)
        assert all(type(v) is float for p in merged for v in p)

    def test_a_local_point_equal_to_a_received_one_survives(self):
        handler = SkylineHandler(2)
        store = LocalStore(2, [(0.2, 0.6), (0.6, 0.2)])
        received = np.array([[0.2, 0.6], [0.4, 0.1]])
        local_state = handler.compute_local_state(store, received)
        assert point_set(local_state) == [(0.2, 0.6)]
        # nothing new to tell: the received state goes on as it came
        assert handler.compute_global_state(received, local_state) is received

    def test_nothing_stored_inside_the_box_leaves_the_state_alone(self):
        handler = SkylineHandler(2, constraint=Rect((0.0, 0.0), (0.1, 0.1)))
        store = LocalStore(2, [(0.5, 0.5), (0.3, 0.7)])
        received = np.array([[0.05, 0.05]])
        local_state = handler.compute_local_state(store, received)
        assert local_state.shape == (0, 2)
        assert handler.compute_global_state(received, local_state) is received
        assert handler.update_local_state([local_state, received]) is received
        assert len(handler.compute_local_answer(store, local_state)) == 0

    def test_empty_received_state_forwards_the_local_skyline(self):
        handler = SkylineHandler(2)
        store = LocalStore(2, [(0.5, 0.5), (0.3, 0.7), (0.5, 0.5), (0.9, 0.9)])
        local_state = handler.compute_local_state(
            store, handler.initial_state())
        assert [as_point(r) for r in local_state] == [
            (0.3, 0.7), (0.5, 0.5), (0.5, 0.5)]
        assert [as_point(r) for r in handler.compute_global_state(
            handler.initial_state(), local_state)] == [(0.3, 0.7), (0.5, 0.5)]

    def test_a_tuple_state_is_converted_once_per_object(self, monkeypatch):
        calls = []
        original = sky._lexsorted
        monkeypatch.setattr(sky, "_lexsorted",
                            lambda rows: calls.append(1) or original(rows))
        handler = SkylineHandler(2)
        state = ((0.2, 0.2),)
        for corner in (0.5, 0.1, 0.3):
            handler.is_link_relevant(
                RectRegion(Rect((corner, corner), (1.0, 1.0))), state)
        assert len(calls) == 1

    def test_wave_priming_equals_the_scalar_local_skyline(self):
        rng = np.random.default_rng(8)
        box = Rect((0.1, 0.1, 0.1), (0.7, 0.7, 0.7))
        for constraint in (None, box, Rect((0.9,) * 3, (0.95,) * 3)):
            blocks = [np.round(rng.random((n, 3)), 1) for n in (0, 1, 7, 40)]
            primed = [LocalStore.view_of(block) for block in blocks]
            prime_skyline_wave(constraint, primed)
            handler = SkylineHandler(3, constraint=constraint)
            for store, block in zip(primed, blocks):
                misses = store.cache_misses
                got = handler._local_skyline(store)
                assert store.cache_misses == misses  # served by the prime
                want = handler._compute_local_skyline(
                    LocalStore.view_of(block))
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestOneReductionPerPeer:
    """Regression: the store cache must keep the local-skyline kernel at
    one invocation per peer per query (it used to run twice — once for
    the local state, once for the local answer)."""

    @pytest.fixture()
    def network(self):
        rng = np.random.default_rng(21)
        data = rng.random((500, 2)) * 0.999
        overlay = MidasOverlay(2, size=1, seed=3, join_policy="data")
        overlay.load(data)
        overlay.grow_to(24)
        return overlay, data

    def counting(self, monkeypatch):
        counts = {}
        original = SkylineHandler._compute_local_skyline

        def wrapper(self, store):
            counts[id(store)] = counts.get(id(store), 0) + 1
            return original(self, store)

        monkeypatch.setattr(SkylineHandler, "_compute_local_skyline", wrapper)
        return counts

    @pytest.mark.parametrize("r", (0, 2))
    def test_at_most_one_kernel_run_per_peer(self, network, monkeypatch, r):
        overlay, data = network
        counts = self.counting(monkeypatch)
        result = distributed_skyline(
            overlay.random_peer(np.random.default_rng(0)), 2,
            restriction=overlay.domain(), r=r)
        assert result.answer == skyline_reference(data)
        assert counts, "no peer computed a local skyline"
        assert max(counts.values()) == 1

    def test_requery_of_static_network_runs_no_kernels(self, network,
                                                      monkeypatch):
        overlay, data = network
        initiator = overlay.random_peer(np.random.default_rng(1))
        first = distributed_skyline(initiator, 2,
                                    restriction=overlay.domain(), r=1)
        counts = self.counting(monkeypatch)
        again = distributed_skyline(initiator, 2,
                                    restriction=overlay.domain(), r=1)
        assert again.answer == first.answer == skyline_reference(data)
        assert counts == {}

    def test_disabled_cache_restores_double_work(self, network, monkeypatch):
        overlay, data = network
        counts = self.counting(monkeypatch)
        monkeypatch.setattr(LocalStore, "cache_enabled", False)
        result = distributed_skyline(
            overlay.random_peer(np.random.default_rng(0)), 2,
            restriction=overlay.domain(), r=1)
        assert result.answer == skyline_reference(data)
        assert max(counts.values()) == 2


# -- the row-major kernels the dims-major ones replaced ----------------------
# Kept as the reference: every dominance test builds an (m, n, d) tensor and
# reduces it over the trailing d axis.  Outputs are booleans and selections
# of input rows, so the dims-major kernels must match them bit for bit.

def row_major_all_pairs(a, b, op=np.less_equal):
    return op(a[:, None, :], b[None, :, :]).all(2)


def row_major_skyline_of_array(array):
    array = np.asarray(array, dtype=float)
    if len(array) == 0:
        return array
    data = array[sky._dominance_order(array)]
    distinct = np.empty(len(data), dtype=bool)
    distinct[0] = True
    np.any(data[1:] != data[:-1], axis=1, out=distinct[1:])
    if distinct.all():
        uniq, counts = data, None
    else:
        starts = np.flatnonzero(distinct)
        counts = np.diff(np.append(starts, len(data)))
        uniq = data[starts]
    kept = np.empty(len(uniq), dtype=np.intp)
    count = 0
    live = np.arange(len(uniq))
    while len(live):
        index, tail = live[:sky._BLOCK], live[sky._BLOCK:]
        block = uniq[index]
        if len(block) > 1:
            alive = row_major_all_pairs(block, block).sum(axis=0) <= 1
            block, index = block[alive], index[alive]
        kept[count:count + len(index)] = index
        count += len(index)
        if len(tail) and len(block):
            live = tail[~row_major_all_pairs(block, uniq[tail]).any(0)]
        else:
            live = tail
    kept = kept[:count]
    if counts is None:
        return uniq[kept].copy()
    return np.repeat(uniq[kept], counts[kept], axis=0)


def row_major_merge(state, other):
    """The pairwise cross-dominance pass Algorithm 13 used to fold with."""
    if not len(other):
        return other, state
    if not len(state):
        return other, sky._distinct(other)
    le = row_major_all_pairs(state, other)
    ge = row_major_all_pairs(state, other, np.greater_equal)
    beaten = (le & ~ge).any(0)
    survivors = other[~beaten] if beaten.any() else other
    fresh = ~le.any(0)
    if not fresh.any():
        return survivors, state
    kept = state[~(ge & ~le).any(1)]
    return survivors, sky._lexsorted(
        np.concatenate((kept, sky._distinct(other[fresh]))))


def row_major_is_link_relevant(handler, region, rows):
    cover = region.cover()
    if handler.constraint is not None and not any(
            rect.intersects(handler.constraint) for rect in cover):
        return False

    def dominated(corner):
        le = np.logical_and.reduce(rows <= corner, axis=1)
        return np.count_nonzero(le) > 0 and bool((rows[le] < corner).any())

    return not all(dominated(rect.lo) for rect in cover)


def identical(a, b):
    """Same shape, dtype and bytes: tells -0.0 from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


#: Sizes on both sides of the 256-row block of the blocked kernels.
_BOUNDARY = (0, 1, 2, 255, 256, 257, 300)


def random_rows(rng, n, dims, kind):
    """``(n, dims)`` rows: distinct reals, a coarse grid (shared
    coordinates and exact duplicates), or a grid of signed zeros and
    small values (``-0.0`` beside ``0.0``)."""
    if kind == "real":
        return rng.random((n, dims))
    if kind == "grid":
        return rng.integers(0, 4, (n, dims)) / 4.0
    values = np.array([-0.0, 0.0, 0.25, 0.5])
    return values[rng.integers(0, len(values), (n, dims))]


kinds = st.sampled_from(["real", "grid", "signed-zero"])


class TestDimsMajorKernels:
    @given(st.integers(1, 6), st.integers(0, 300), st.integers(0, 300),
           st.integers(0, 2 ** 32 - 1), kinds)
    @settings(max_examples=60, deadline=None)
    def test_all_pairs_equals_the_row_major_reduction(self, dims, m, n, seed,
                                                      kind):
        rng = np.random.default_rng(seed)
        a, b = random_rows(rng, m, dims, kind), random_rows(rng, n, dims, kind)
        for op in (np.less_equal, np.equal):
            got = sky._all_pairs(sky._dims_major(a), sky._dims_major(b), op)
            assert identical(got, row_major_all_pairs(a, b, op))

    @pytest.mark.parametrize("kind", ["real", "grid", "signed-zero"])
    @pytest.mark.parametrize("dims", range(1, 7))
    def test_skyline_of_array_across_the_block_boundary(self, dims, kind):
        rng = np.random.default_rng(dims)
        for n in _BOUNDARY:
            data = random_rows(rng, n, dims, kind)
            assert identical(skyline_of_array(data),
                             row_major_skyline_of_array(data))
            # a block boundary inside the survivors: a long anti-diagonal
            line = np.linspace(0.0, 1.0, n)
            front = np.column_stack([line, line[::-1]] + [line] * (dims - 2)) \
                if dims > 1 else line[:, None]
            assert identical(skyline_of_array(front),
                             row_major_skyline_of_array(front))

    @given(st.integers(1, 6), st.integers(0, 300),
           st.integers(0, 2 ** 32 - 1), kinds)
    @settings(max_examples=60, deadline=None)
    def test_skyline_of_array_equals_the_row_major_kernel(self, dims, n, seed,
                                                          kind):
        data = random_rows(np.random.default_rng(seed), n, dims, kind)
        assert identical(skyline_of_array(data),
                         row_major_skyline_of_array(data))


def antichains(rng, count, dims, kind):
    """``count`` lexsorted, distinct antichains (some empty)."""
    out = []
    for _ in range(count):
        rows = random_rows(rng, int(rng.integers(0, 40)), dims, kind)
        out.append(sky._distinct(sky._lexsorted(skyline_of_array(rows))))
    return out


class TestOnePassAlgorithm13:
    @given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 2 ** 32 - 1),
           kinds, st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_update_local_state_equals_the_pairwise_fold(
            self, dims, count, seed, kind, as_points):
        states = antichains(np.random.default_rng(seed), count, dims, kind)
        fold = np.empty((0, dims))
        for rows in states:
            fold = row_major_merge(fold, rows)[1]
        # a sequence-of-points state is what a cache seed or a replayed
        # answer hands in
        given_states = [[tuple(p) for p in rows.tolist()] if points else rows
                        for rows, points in zip(states, as_points)]
        got = SkylineHandler(dims).update_local_state(given_states)
        assert identical(got, fold)

    def test_a_local_state_with_a_repeat_folds_once(self):
        handler = SkylineHandler(2)
        local = np.array([[0.2, 0.6], [0.2, 0.6], [0.5, 0.1]])
        child = np.array([[0.1, 0.9], [0.5, 0.1]])
        got = handler.update_local_state([local, handler.initial_state(),
                                          child])
        assert identical(got, row_major_merge(row_major_merge(
            np.empty((0, 2)), local)[1], child)[1])
        assert identical(handler.update_local_state([local]),
                         np.array([[0.2, 0.6], [0.5, 0.1]]))
        assert handler.update_local_state([]).shape == (0, 2)

    @given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), kinds)
    @settings(max_examples=150, deadline=None)
    def test_the_lean_merge_equals_the_row_major_pass(self, dims, seed, kind):
        rng = np.random.default_rng(seed)
        state, other = antichains(rng, 2, dims, kind)
        # a store can hold a tuple twice, and share tuples with the state
        other = sky._lexsorted(np.concatenate(
            (other, other[:2], state[:3])))
        other = sky._lexsorted(skyline_of_array(other))
        got = SkylineHandler(dims)._merge(state, other)
        want = row_major_merge(state, other)
        assert identical(got[0], want[0]) and identical(got[1], want[1])


class TestLeanLinkTest:
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), kinds,
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_is_link_relevant_equals_the_row_major_corner_test(
            self, dims, seed, kind, boxed):
        rng = np.random.default_rng(seed)
        (state,) = antichains(rng, 1, dims, kind)
        box = None
        if boxed:
            lo = rng.integers(0, 3, dims) / 4.0
            box = Rect(tuple(lo.tolist()), tuple((lo + 0.5).tolist()))
        handler = SkylineHandler(dims, constraint=box)
        corners = np.concatenate((random_rows(rng, 30, dims, kind), state))
        for corner in corners:
            lo = tuple(corner.tolist())
            region = RectRegion(Rect(lo, tuple(np.maximum(
                corner + rng.integers(0, 3, dims) / 4.0, corner).tolist())))
            assert handler.is_link_relevant(region, state) == \
                row_major_is_link_relevant(handler, region, state)


def test_wave_priming_of_an_oversized_group_equals_the_scalar_kernel():
    # past the padded tensor's width cap the grouped kernel runs the
    # blocked mask, across several 256-row blocks
    rng = np.random.default_rng(12)
    blocks = [np.round(rng.random((n, 2)), 3) for n in (700, 3, 0, 60)]
    primed = [LocalStore.view_of(block) for block in blocks]
    prime_skyline_wave(None, primed)
    handler = SkylineHandler(2)
    for store, block in zip(primed, blocks):
        want = handler._compute_local_skyline(LocalStore.view_of(block))
        assert identical(handler._local_skyline(store), want)
