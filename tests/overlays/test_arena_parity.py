"""Bit-identity of the arena substrate and the batched wavefront engine.

Two contracts, both exact (answers *and* every ``QueryStats`` counter):

* a :func:`from_overlay` mirror run through the unchanged engines
  (recursive, event-driven, zero-fault resilient) reproduces the object
  overlay's results for every handler family and overlay family;
* the batched wavefront engine reproduces the scalar ``r = 0`` engine on
  both substrates, for the cold and the seeded drivers, and falls back
  to the scalar engine outside its domain (``r > 0``, non-strict).

docs/SCALE.md gives the equivalence argument these tests pin down.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LinearScore, run_ripple
from repro.net.eventsim import event_driven_ripple
from repro.net.faults import FaultPlan, resilient_ripple
from repro.overlays import from_overlay, midas_arena, wavefront_execute
from repro.queries.skyline import distributed_skyline
from repro.queries.topk import distributed_topk

from tests import netlib
from tests.netlib import can_network


def build(kind, seed, peers=60, tuples=260):
    return netlib.build_network(kind, seed, peers=peers, tuples=tuples)


NETWORKS = {kind: (lambda seed, peers=60, tuples=260, _k=kind:
                   build(_k, seed, peers=peers, tuples=tuples))
            for kind in netlib.OVERLAYS}


def handlers_for(dims):
    return netlib.handlers_for(dims, third="diversify")


def assert_bit_identical(got, expected):
    assert got.answer == expected.answer
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(expected.stats)


relaxed = settings(max_examples=10, deadline=None)


class TestMirrorBitIdentity:
    """A mirror is indistinguishable from its source overlay."""

    @relaxed
    @given(seed=st.integers(0, 30),
           kind=st.sampled_from(netlib.OVERLAYS),
           peers=st.integers(50, 120),
           r=st.sampled_from((0, 2)),
           pick=st.integers(0, 2))
    def test_recursive_engine(self, seed, kind, peers, r, pick):
        overlay = NETWORKS[kind](seed, peers=peers)
        arena = from_overlay(overlay)
        restriction = overlay.domain()
        strict = arena.kind != "frustum"
        handler = handlers_for(restriction.rect.dims)[pick]
        expected = run_ripple(overlay.peers()[0], handler, r,
                              restriction=restriction, strict=strict)
        got = run_ripple(arena.peer(0), handler, r,
                         restriction=restriction, strict=strict)
        assert_bit_identical(got, expected)

    @relaxed
    @given(seed=st.integers(0, 30),
           kind=st.sampled_from(netlib.OVERLAYS),
           r=st.sampled_from((0, 1)),
           pick=st.integers(0, 2))
    def test_event_driven_engine(self, seed, kind, r, pick):
        overlay = NETWORKS[kind](seed)
        arena = from_overlay(overlay)
        restriction = overlay.domain()
        handler = handlers_for(restriction.rect.dims)[pick]
        expected = event_driven_ripple(overlay.peers()[0], handler, r,
                                       restriction=restriction, strict=False)
        got = event_driven_ripple(arena.peer(0), handler, r,
                                  restriction=restriction, strict=False)
        assert_bit_identical(got, expected)

    @pytest.mark.parametrize("kind", netlib.OVERLAYS)
    def test_zero_fault_resilient_engine(self, kind):
        """The supervised engine over a mirror under a null fault plan
        stays bit-identical to the fault-free run — the detector never
        starts and nothing is recovered."""
        overlay = NETWORKS[kind](13)
        arena = from_overlay(overlay)
        restriction = overlay.domain()
        for handler in handlers_for(restriction.rect.dims):
            plain = event_driven_ripple(arena.peer(0), handler, 0,
                                        restriction=restriction,
                                        strict=False)
            resilient = resilient_ripple(arena.peer(0), handler, 0,
                                         restriction=restriction,
                                         faults=FaultPlan.none())
            assert resilient.answer == plain.answer
            assert resilient.stats.latency == plain.stats.latency
            assert resilient.stats.processed == plain.stats.processed
            assert resilient.stats.completeness == 1.0
            assert resilient.stats.regions_recovered == 0


class TestWavefrontParity:
    """Breadth-first batched evaluation == depth-first scalar evaluation."""

    @relaxed
    @given(seed=st.integers(0, 30),
           kind=st.sampled_from(netlib.OVERLAYS),
           peers=st.integers(50, 120),
           pick=st.integers(0, 1))
    def test_cold_queries_on_mirrors(self, seed, kind, peers, pick):
        overlay = NETWORKS[kind](seed, peers=peers)
        arena = from_overlay(overlay)
        restriction = overlay.domain()
        strict = arena.kind != "frustum"
        handler = handlers_for(restriction.rect.dims)[pick]
        expected = run_ripple(arena.peer(0), handler, 0,
                              restriction=restriction, strict=strict)
        got = run_ripple(arena.peer(0), handler, 0, restriction=restriction,
                         strict=strict, executor=wavefront_execute)
        assert_bit_identical(got, expected)

    @relaxed
    @given(seed=st.integers(0, 30), peers=st.integers(50, 200),
           pick=st.integers(0, 1))
    def test_cold_queries_on_direct_midas_arena(self, seed, peers, pick):
        rng = np.random.default_rng(seed)
        arena = midas_arena(peers, dims=2, seed=seed,
                            data=rng.random((300, 2)) * 0.999)
        restriction = arena.domain()
        handler = handlers_for(2)[pick]
        initiator = arena.random_peer(np.random.default_rng(seed + 1))
        expected = run_ripple(initiator, handler, 0, restriction=restriction)
        got = run_ripple(initiator, handler, 0, restriction=restriction,
                         executor=wavefront_execute)
        assert_bit_identical(got, expected)

    @relaxed
    @given(seed=st.integers(0, 30), peers=st.integers(50, 200))
    def test_seeded_drivers(self, seed, peers):
        rng = np.random.default_rng(seed)
        arena = midas_arena(peers, dims=2, seed=seed,
                            data=rng.random((300, 2)) * 0.999)
        initiator = arena.peer(0)
        restriction = arena.domain()
        fn = LinearScore([0.3, 0.7])
        expected = distributed_topk(initiator, fn, 5,
                                    restriction=restriction)
        got = distributed_topk(initiator, fn, 5, restriction=restriction,
                               executor=wavefront_execute)
        assert_bit_identical(got, expected)
        expected = distributed_skyline(initiator, 2,
                                       restriction=restriction)
        got = distributed_skyline(initiator, 2, restriction=restriction,
                                  executor=wavefront_execute)
        assert_bit_identical(got, expected)

    def test_sequential_modes_fall_back_to_scalar(self):
        arena = midas_arena(
            64, dims=2, seed=4,
            data=np.random.default_rng(4).random((300, 2)) * 0.999)
        initiator = arena.peer(0)
        restriction = arena.domain()
        fn = LinearScore([0.5, 0.5])
        for r in (1, 3):
            expected = distributed_topk(initiator, fn, 5,
                                        restriction=restriction, r=r)
            got = distributed_topk(initiator, fn, 5,
                                   restriction=restriction, r=r,
                                   executor=wavefront_execute)
            assert_bit_identical(got, expected)

    def test_non_strict_falls_back_to_scalar(self):
        overlay = can_network(7, peers=60)
        arena = from_overlay(overlay)
        restriction = overlay.domain()
        handler = handlers_for(2)[0]
        expected = run_ripple(arena.peer(0), handler, 0,
                              restriction=restriction, strict=False)
        got = run_ripple(arena.peer(0), handler, 0, restriction=restriction,
                         strict=False, executor=wavefront_execute)
        assert_bit_identical(got, expected)

    def test_negative_r_rejected(self):
        from repro.net.context import QueryContext

        arena = midas_arena(8, dims=2, seed=0)
        with pytest.raises(ValueError):
            wavefront_execute(arena.peer(0), handlers_for(2)[0], -1,
                              restriction=arena.domain(),
                              ctx=QueryContext(strict=True))
