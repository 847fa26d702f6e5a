"""Unit and integration tests for k-diversification (Section 6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.div_baseline import FloodingDiversifier
from repro.common.geometry import Rect
from repro.common.store import LocalStore
from repro.overlays.can import CanOverlay
from repro.overlays.midas import MidasOverlay
from repro.queries.diversify import (
    DiversificationObjective,
    RippleDiversifier,
    diversify_reference,
    greedy_diversify,
)


def objective(lam=0.5, q=(0.5, 0.5)):
    return DiversificationObjective(q, lam, p=1)


class TestObjective:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            DiversificationObjective((0.5,), 1.5)

    @pytest.mark.parametrize("query", [(math.nan, 0.5), (0.5, math.inf), ()])
    def test_query_must_be_finite(self, query):
        with pytest.raises(ValueError, match="query"):
            DiversificationObjective(query, 0.5)

    @pytest.mark.parametrize("p", [0, -1, math.nan])
    def test_p_must_be_positive(self, p):
        with pytest.raises(ValueError, match="p must be positive"):
            DiversificationObjective((0.5, 0.5), 0.5, p=p)
        DiversificationObjective((0.5, 0.5), 0.5, p=math.inf)  # L-infinity

    def test_f_needs_two_members(self):
        with pytest.raises(ValueError):
            objective().f([(0.1, 0.1)])

    def test_f_value(self):
        obj = objective(lam=0.5, q=(0.0, 0.0))
        members = [(0.2, 0.0), (0.0, 0.6)]
        # maxrel = 0.6, minpair = |0.2| + |0.6| = 0.8
        assert obj.f(members) == pytest.approx(0.5 * 0.6 - 0.5 * 0.8)

    def test_phi_zero_when_harmless(self):
        """Case 1 of Equation 3: within relevance range and diverse.

        Members at L1 distance 1 from each other and from q; the
        candidate (0.5, 0.5) is at distance 1 from both and from q, so it
        costs nothing on either term.
        """
        obj = objective(lam=0.5, q=(0.0, 0.0))
        members = [(0.0, 0.0), (1.0, 0.0)]
        assert obj.phi((0.5, 0.5), members) == pytest.approx(0.0)

    def test_phi_relevance_loss(self):
        """Case 2: farther from q than any member."""
        obj = objective(lam=0.5, q=(0.0, 0.0))
        members = [(0.5, 0.0), (0.0, 0.5)]
        # t at L1 distance 1.6; maxrel = 0.5; diversity unaffected
        t = (0.8, 0.8)
        assert obj.phi(t, members) == pytest.approx(0.5 * (1.6 - 0.5))

    def test_phi_diversity_loss(self):
        """Case 3: crowds an existing member."""
        obj = objective(lam=0.5, q=(0.0, 0.0))
        members = [(0.5, 0.0), (0.0, 0.5)]
        t = (0.45, 0.0)  # 0.05 from the first member; minpair = 1.0
        assert obj.phi(t, members) == pytest.approx(0.5 * (1.0 - 0.05))

    def test_phi_both_losses(self):
        """Case 4: irrelevant and crowding."""
        obj = objective(lam=0.5, q=(0.0, 0.0))
        members = [(0.5, 0.0), (0.0, 0.5)]
        t = (0.9, 0.0)
        expected = 0.5 * (0.9 - 0.5) + 0.5 * (1.0 - 0.4)
        assert obj.phi(t, members) == pytest.approx(expected)

    def test_phi_batch_matches_scalar(self):
        obj = objective(lam=0.3)
        members = [(0.1, 0.1), (0.9, 0.9)]
        rng = np.random.default_rng(0)
        pts = rng.random((20, 2))
        batch = obj.phi_batch(pts, members)
        for point, value in zip(pts, batch):
            assert obj.phi(tuple(point), members) == pytest.approx(value)

    @given(st.floats(0, 1), st.lists(
        st.tuples(st.floats(0, 0.99), st.floats(0, 0.99)),
        min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_phi_is_marginal_f_increase(self, lam, members):
        """phi(t, O) == f(O + t) - f(O): the identity behind Eq. 3."""
        obj = DiversificationObjective((0.5, 0.5), lam, p=1)
        members = list(dict.fromkeys(members))
        if len(members) < 2:
            return
        t = (0.123, 0.779)
        if t in members:
            return
        got = obj.phi(t, members)
        expected = obj.f([*members, t]) - obj.f(members)
        assert got == pytest.approx(max(0.0, expected), abs=1e-9)

    def test_region_lower_bound_sound(self):
        obj = objective(lam=0.4, q=(0.2, 0.2))
        members = [(0.3, 0.3), (0.8, 0.1)]
        rect = Rect((0.5, 0.5), (0.9, 0.9))
        bound = obj.phi_lower_bound(rect, members, grow=False)
        rng = np.random.default_rng(1)
        for _ in range(50):
            point = rect.sample(rng)
            assert obj.phi(point, members) >= bound - 1e-9

    def test_grow_bound_sound(self):
        obj = objective(lam=0.4, q=(0.2, 0.2))
        members = [(0.3, 0.3)]
        rect = Rect((0.5, 0.5), (0.9, 0.9))
        bound = obj.phi_lower_bound(rect, members, grow=True)
        rng = np.random.default_rng(2)
        pts = np.array([rect.sample(rng) for _ in range(50)])
        assert obj.phi_grow_batch(pts, members).min() >= bound - 1e-9

    def test_best_local_excludes(self):
        obj = objective()
        store = LocalStore(2, [(0.5, 0.5), (0.6, 0.6)])
        best = obj.best_local(store, [], [(0.5, 0.5)], grow=True)
        assert best[1] == (0.6, 0.6)

    def test_best_local_all_excluded(self):
        obj = objective()
        store = LocalStore(2, [(0.5, 0.5)])
        assert obj.best_local(store, [], [(0.5, 0.5)], grow=True) is None

    def test_best_local_empty_store(self):
        assert objective().best_local(LocalStore(2), [], [], True) is None


class TestGreedy:
    @pytest.fixture(scope="class")
    def networks(self):
        rng = np.random.default_rng(31)
        data = rng.random((1200, 3)) * 0.999
        midas = MidasOverlay(3, size=1, seed=5, join_policy="data",
                             split_rule="midpoint")
        midas.load(data)
        midas.grow_to(64)
        can = CanOverlay(3, size=1, seed=5, join_policy="data")
        can.load(data)
        can.grow_to(64)
        return midas, can, data

    def test_k_validation(self, networks):
        midas, _, data = networks
        engine = RippleDiversifier(midas, midas.random_peer())
        with pytest.raises(ValueError):
            greedy_diversify(engine, objective(q=tuple(data[0])), 1)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_all_engines_match_reference(self, networks, lam):
        midas, can, data = networks
        obj = DiversificationObjective(data[7], lam, p=1)
        ref_members, ref_value = diversify_reference(data, obj, 4)
        for engine in (RippleDiversifier(midas, midas.random_peer(), r=0),
                       RippleDiversifier(midas, midas.random_peer(),
                                         r=10 ** 9),
                       FloodingDiversifier(can, can.random_peer())):
            result = greedy_diversify(engine, obj, 4)
            assert sorted(result.answer[0]) == sorted(ref_members)
            assert result.answer[1] == pytest.approx(ref_value)

    def test_improvement_never_worsens(self, networks):
        midas, _, data = networks
        obj = DiversificationObjective(data[11], 0.5, p=1)
        engine = RippleDiversifier(midas, midas.random_peer(), r=0)
        grown = greedy_diversify(engine, obj, 5, max_iters=0)
        improved = greedy_diversify(engine, obj, 5, max_iters=5)
        assert improved.answer[1] <= grown.answer[1] + 1e-12

    def test_members_are_distinct(self, networks):
        midas, _, data = networks
        obj = DiversificationObjective(data[3], 0.5, p=1)
        engine = RippleDiversifier(midas, midas.random_peer(), r=0)
        members, _ = greedy_diversify(engine, obj, 6).answer
        assert len(set(members)) == 6

    def test_k_exceeding_data(self):
        data = np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.1]])
        overlay = MidasOverlay(2, size=4, seed=1)
        overlay.load(data)
        engine = RippleDiversifier(overlay, overlay.random_peer(), r=0)
        members, value = greedy_diversify(
            engine, objective(q=(0.1, 0.1)), 5).answer
        assert sorted(members) == sorted(map(tuple, data))

    def test_cost_accumulates_over_steps(self, networks):
        midas, _, data = networks
        obj = DiversificationObjective(data[5], 0.5, p=1)
        engine = RippleDiversifier(midas, midas.random_peer(), r=0)
        result = greedy_diversify(engine, obj, 4)
        # at least k sequential sub-queries worth of latency
        assert result.stats.latency >= 4
        assert result.stats.processed >= 4
