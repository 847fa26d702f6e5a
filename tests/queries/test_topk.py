"""Unit and integration tests for distributed top-k (Section 4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LinearScore, MidasOverlay, NearestScore, SkylineHandler
from repro.common.store import LocalStore
from repro.core.regions import RectRegion
from repro.common.geometry import Rect
from repro.queries.topk import (
    TopKHandler,
    TopKState,
    distributed_topk,
    topk_reference,
)


def handler(k=3, weights=(1, 1)):
    return TopKHandler(LinearScore(weights), k)


class TestState:
    def test_initial_state_cannot_prune(self):
        h = handler()
        state = h.initial_state()
        assert h.tau(state) == -math.inf
        assert h.is_link_relevant(RectRegion(Rect.unit(2)), state)

    def test_tau_needs_k_scores(self):
        h = handler(k=3)
        assert h.tau(TopKState((5.0, 4.0))) == -math.inf
        assert h.tau(TopKState((5.0, 4.0, 3.0))) == 3.0

    def test_floor_overrides_short_list(self):
        h = handler(k=3)
        assert h.tau(TopKState((5.0,), floor=2.0)) == 2.0

    def test_merge_keeps_best_k(self):
        h = handler(k=3)
        merged = h.update_local_state(
            [TopKState((5.0, 1.0)), TopKState((4.0, 3.0))])
        assert merged.scores == (5.0, 4.0, 3.0)

    def test_merge_remembers_certificate_floor(self):
        h = handler(k=2)
        merged = h.update_local_state([TopKState((5.0, 4.0))])
        assert merged.floor == 4.0

    def test_neutral_is_identity(self):
        h = handler(k=3)
        state = TopKState((5.0, 4.0), floor=1.0)
        neutral = h.neutral_local_state()
        assert h.update_local_state([state, neutral]).scores == state.scores

    def test_compute_local_state_respects_cutoff(self):
        h = handler(k=2)
        store = LocalStore(2, [(0.9, 0.9), (0.1, 0.1)])
        state = h.compute_local_state(store, TopKState((9.9, 1.5)))
        assert state.scores == (pytest.approx(1.8),)
        assert state.floor == 1.5

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            handler(k=0)

    @pytest.mark.parametrize("k", [True, False, 2.5, 3.0, "3", None])
    def test_k_must_be_a_plain_int(self, k):
        # 2.5 used to fail deep in the handler (slice indices must be
        # integers); True sliced one score.
        with pytest.raises(ValueError, match="k must be a positive int"):
            TopKHandler(LinearScore([1, 1]), k)


def _scalar_finalize(h, answers):
    """``finalize`` as it was: one ``fn.score`` call per collected tuple,
    a sort on ``(-score, tuple)``."""
    tuples = [t for answer in answers for t in map(tuple, answer.tolist())]
    scored = sorted(((h.fn.score(t), t) for t in tuples),
                    key=lambda pair: (-pair[0], pair[1]))
    return scored[: h.k]


_GRID = st.sampled_from([-0.0, 0.0, 0.1, 0.3, 1 / 3, 0.7, 0.9])
_WEIGHTS = st.sampled_from([-2.5, -1.0, -0.1, -0.0, 0.0, 0.3, 1.0, 1 / 7,
                            3.0])


def _answers(dims):
    """Row blocks as peers ship them; a block may repeat a row, and the
    grid makes equal scores and signed zeros common."""
    point = st.tuples(*[_GRID] * dims)
    return st.lists(st.lists(point, max_size=6).map(
        lambda rows: np.array(rows, dtype=float).reshape(len(rows), dims)),
        max_size=5)


def _blocks(*answers):
    return [np.array(rows, dtype=float).reshape(len(rows), 2)
            for rows in answers]


class TestFinalizeBlock:
    """``finalize`` scores the collected row blocks in one call and orders
    them with one lexsort; the result equals the sort over scalar
    ``fn.score``, floats compared with ``==``."""

    @given(st.data(), st.sampled_from([1, 4, 9]), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_linear_mixed_sign_weights(self, data, dims, k):
        # nine terms cross ndarray.sum's pairwise threshold; k may exceed
        # the number of rows
        fn = LinearScore(data.draw(st.lists(_WEIGHTS, min_size=dims,
                                            max_size=dims)))
        h = TopKHandler(fn, k)
        answers = data.draw(_answers(dims))
        assert h.finalize(answers) == _scalar_finalize(h, answers)

    @given(st.data(), st.sampled_from([1, 2, 3, math.inf]),
           st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_nearest_every_metric(self, data, p, k):
        h = TopKHandler(NearestScore((0.3, 1 / 3, 0.8), p=p), k)
        answers = data.draw(_answers(3))
        assert h.finalize(answers) == _scalar_finalize(h, answers)

    def test_equal_scores_break_by_tuple(self):
        h = handler(k=3)
        answers = _blocks([(0.75, 0.25), (0.25, 0.75)],
                          [(0.5, 0.5), (1.0, 1.0)])
        got = h.finalize(answers)
        assert [t for _, t in got] == [(1.0, 1.0), (0.25, 0.75), (0.5, 0.5)]
        assert got == _scalar_finalize(h, answers)
        assert all(type(score) is float for score, _ in got)
        assert all(type(v) is float for _, t in got for v in t)

    def test_signed_zeros_and_duplicates_keep_arrival_order(self):
        """``-0.0 == 0.0`` in both the score and the tuple: the stable
        sort keeps the block order, as the scalar sort does."""
        h = handler(k=4, weights=(1, -1))
        answers = _blocks([(0.0, -0.0), (0.5, 0.5)],
                          [(-0.0, 0.0), (0.0, -0.0), (0.5, 0.5)])
        got = h.finalize(answers)
        want = _scalar_finalize(h, answers)
        assert repr(got) == repr(want)
        assert repr(got[0]) == "(0.0, (0.0, -0.0))"

    def test_empty_answers(self):
        empty = np.empty((0, 2))
        assert handler().finalize([]) == []
        assert handler().finalize([empty, empty]) == []
        assert TopKHandler(NearestScore((0.5, 0.5)), 2).finalize(
            [empty]) == []


class TestArrayAnswers:
    """Row-block answers never reach a truthiness test."""

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_answer_size_is_the_row_count(self, rows):
        block = np.full((rows, 2), 0.5)
        for h in (handler(), SkylineHandler(2)):
            assert h.answer_size(block) == rows

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_score_rows_takes_a_block(self, rows):
        fn = LinearScore((0.3, 1 / 7))
        block = np.linspace(0.0, 0.9, 2 * rows).reshape(rows, 2)
        assert fn.score_rows(block) == fn.score_rows(
            list(map(tuple, block.tolist()))) == [fn.score(t) for t in block]

    def test_local_answer_is_a_copy_in_store_order(self):
        store = LocalStore(2, [(0.9, 0.9), (0.1, 0.1), (0.5, 0.5)])
        h = handler(k=2)
        state = h.compute_local_state(store, h.initial_state())
        answer = h.compute_local_answer(store, state)
        assert answer.tolist() == [[0.9, 0.9], [0.5, 0.5]]
        store.insert((0.2, 0.2))
        assert answer.tolist() == [[0.9, 0.9], [0.5, 0.5]]


class TestLinkDecisions:
    def test_relevant_when_bound_reaches_tau(self):
        h = handler(k=1)
        state = TopKState((1.0,))
        good = RectRegion(Rect((0.4, 0.7), (0.6, 0.9)))   # f+ = 1.5
        bad = RectRegion(Rect((0.1, 0.1), (0.3, 0.3)))    # f+ = 0.6
        assert h.is_link_relevant(good, state)
        assert not h.is_link_relevant(bad, state)

    def test_priority_prefers_higher_bound(self):
        h = handler()
        near = RectRegion(Rect((0.8, 0.8), (1.0, 1.0)))
        far = RectRegion(Rect((0.0, 0.0), (0.2, 0.2)))
        assert h.link_priority(near) < h.link_priority(far)


class TestSeededExecution:
    @pytest.fixture(scope="class")
    def network(self):
        rng = np.random.default_rng(3)
        data = rng.random((800, 3)) * 0.999
        overlay = MidasOverlay(3, size=1, seed=11, join_policy="data")
        overlay.load(data)
        overlay.grow_to(100)
        return overlay, data

    def test_seeded_matches_reference(self, network):
        overlay, data = network
        fn = LinearScore([1, 2, 0.5])
        ref = topk_reference(data, fn, 10)
        for r in (0, 3, 10 ** 6):
            res = distributed_topk(overlay.random_peer(), fn, 10,
                                   restriction=overlay.domain(), r=r)
            assert [s for s, _ in res.answer] == [s for s, _ in ref]

    def test_seeded_nearest_neighbor(self, network):
        overlay, data = network
        fn = NearestScore((0.4, 0.5, 0.6))
        ref = topk_reference(data, fn, 5)
        res = distributed_topk(overlay.random_peer(), fn, 5,
                               restriction=overlay.domain(), r=0)
        assert [s for s, _ in res.answer] == pytest.approx(
            [s for s, _ in ref])

    def test_seeded_prunes_versus_cold(self, network):
        overlay, _ = network
        fn = LinearScore([1, 1, 1])
        seeded = distributed_topk(overlay.random_peer(), fn, 5,
                                  restriction=overlay.domain(), r=0)
        cold = distributed_topk(overlay.random_peer(), fn, 5,
                                restriction=overlay.domain(), r=0,
                                seeded=False)
        assert seeded.stats.processed < cold.stats.processed

    def test_seeded_latency_logarithmic(self, network):
        overlay, _ = network
        fn = LinearScore([1, 1, 1])
        res = distributed_topk(overlay.random_peer(), fn, 5,
                               restriction=overlay.domain(), r=0)
        # routing + probe + fan-out, all O(depth)-ish
        assert res.stats.latency < 6 * overlay.tree.max_depth()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_initiator_and_seed(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((120, 2)) * 0.999
        overlay = MidasOverlay(2, size=1, seed=seed, join_policy="data")
        overlay.load(data)
        overlay.grow_to(24)
        fn = LinearScore([1, 1])
        ref = [s for s, _ in topk_reference(data, fn, 4)]
        res = distributed_topk(overlay.random_peer(rng), fn, 4,
                               restriction=overlay.domain(),
                               r=int(rng.integers(0, 6)))
        assert [s for s, _ in res.answer] == ref


class TestReference:
    def test_reference_sorted_and_tiebroken(self):
        data = np.array([[0.5, 0.5], [0.9, 0.1], [0.1, 0.9]])
        fn = LinearScore([1, 1])
        ref = topk_reference(data, fn, 3)
        assert [t for _, t in ref] == [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]

    def test_reference_k_truncates(self):
        data = np.random.default_rng(0).random((50, 2))
        assert len(topk_reference(data, LinearScore([1, 1]), 7)) == 7


class TestBadScoringFunctions:
    """Bad scoring parameters fail at the API boundary: at construction,
    or — a well-formed function of the wrong dimensionality — in
    ``distributed_topk`` before the query touches a peer."""

    @pytest.mark.parametrize("build", [
        lambda: LinearScore([math.nan, 1.0]),
        lambda: LinearScore([math.inf, 1.0]),
        lambda: LinearScore([]),
        lambda: NearestScore([math.nan, 0.5]),
        lambda: NearestScore([0.5, 0.5], p=0),
        lambda: LinearScore([1.0, 1.0, 1.0]),       # on a 2-d network
        lambda: NearestScore([0.5]),                # on a 2-d network
    ], ids=["nan-weight", "inf-weight", "no-weights", "nan-query",
            "zero-p", "three-weights-2d", "one-coordinate-2d"])
    @pytest.mark.parametrize("seeded", [True, False])
    def test_value_error_before_any_peer_is_touched(self, monkeypatch,
                                                    build, seeded):
        overlay = MidasOverlay(2, size=8, seed=3)
        overlay.load(np.random.default_rng(3).random((60, 2)) * 0.999)
        peer = overlay.peers()[0]

        def touched(*args, **kwargs):
            raise AssertionError("the query started")

        monkeypatch.setattr("repro.net.context.QueryContext.__init__",
                            touched)
        monkeypatch.setattr(type(peer), "links", touched)
        monkeypatch.setattr(LocalStore, "top_scoring", touched)
        with pytest.raises(ValueError,
                           match="weights|query|p must|-d tuples.*2-d"):
            distributed_topk(peer, build(), 3, restriction=overlay.domain(),
                             seeded=seeded)

    def test_the_mismatch_names_both_dimensionalities(self):
        overlay = MidasOverlay(2, size=4, seed=3)
        with pytest.raises(ValueError, match=r"3-d tuples.*is 2-d"):
            distributed_topk(overlay.peers()[0], LinearScore([1, 1, 1]), 3,
                             restriction=overlay.domain())
