"""Cross-validation: message-level execution == recursive cost model.

The recursive engine computes latency analytically (max over parallel
branches, sum over sequential iterations); the event-driven engine reads
it off message timestamps.  For identical queries on identical overlays
the two must agree on answers, visited peers, forwards, and latency —
for every ripple parameter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LinearScore, MidasOverlay, run_ripple
from repro.net.eventsim import EventSimulator, event_driven_ripple
from repro.overlays.chord import ChordOverlay
from repro.queries.skyline import SkylineHandler
from repro.queries.topk import TopKHandler


class TestEventSimulator:
    def test_fifo_at_same_time(self):
        sim = EventSimulator()
        order = []
        sim.schedule(1, lambda: order.append("a"))
        sim.schedule(1, lambda: order.append("b"))
        sim.schedule(0, lambda: order.append("first"))
        assert sim.run() == 1
        assert order == ["first", "a", "b"]

    def test_nested_scheduling(self):
        sim = EventSimulator()
        times = []
        sim.schedule(2, lambda: (times.append(sim.now),
                                 sim.schedule(3, lambda: times.append(
                                     sim.now))))
        assert sim.run() == 5
        assert times == [2, 5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventSimulator().schedule(-1, lambda: None)

    @given(st.lists(st.integers(0, 9), max_size=30))
    def test_message_id_blocks_interleave_without_gaps(self, counts):
        """``new_message_ids(n)`` is ``n`` calls of ``new_message_id``."""
        sim = EventSimulator()
        drawn = []
        for count in counts:
            if count == 1:
                drawn.append(sim.new_message_id())
            else:
                first = sim.new_message_ids(count)
                drawn.extend(range(first, first + count))
        assert drawn == list(range(len(drawn)))
        assert sim.new_message_id() == len(drawn)


def midas_network(seed, peers=48, tuples=400):
    rng = np.random.default_rng(seed)
    data = rng.random((tuples, 2)) * 0.999
    overlay = MidasOverlay(2, size=1, seed=seed, join_policy="data")
    overlay.load(data)
    overlay.grow_to(peers)
    return overlay


class TestAgreement:
    @pytest.mark.parametrize("r", [0, 1, 3, 10 ** 9])
    def test_topk_agrees_on_midas(self, r):
        overlay = midas_network(3)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[7]
        recursive = run_ripple(initiator, handler, r,
                               restriction=overlay.domain())
        message_level = event_driven_ripple(initiator, handler, r,
                                            restriction=overlay.domain())
        assert message_level.answer == recursive.answer
        assert message_level.stats.processed == recursive.stats.processed
        assert message_level.stats.latency == recursive.stats.latency
        assert (message_level.stats.forward_messages
                == recursive.stats.forward_messages)

    @pytest.mark.parametrize("r", [0, 2, 10 ** 9])
    def test_skyline_agrees_on_midas(self, r):
        overlay = midas_network(5)
        handler = SkylineHandler(2)
        initiator = overlay.peers()[0]
        recursive = run_ripple(initiator, handler, r,
                               restriction=overlay.domain())
        message_level = event_driven_ripple(initiator, handler, r,
                                            restriction=overlay.domain())
        assert message_level.answer == recursive.answer
        assert message_level.stats.latency == recursive.stats.latency
        assert message_level.stats.processed == recursive.stats.processed

    def test_agrees_on_chord(self):
        overlay = ChordOverlay(size=32, seed=2)
        overlay.load(np.random.default_rng(1).random((300, 1)) * 0.999)
        handler = TopKHandler(LinearScore([1]), 4)
        initiator = overlay.peers()[5]
        for r in (0, 10 ** 9):
            recursive = run_ripple(initiator, handler, r,
                                   restriction=overlay.domain())
            message_level = event_driven_ripple(
                initiator, handler, r, restriction=overlay.domain())
            assert message_level.answer == recursive.answer
            assert message_level.stats.latency == recursive.stats.latency

    @given(st.integers(0, 10 ** 6), st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_fuzz_agreement(self, seed, r):
        overlay = midas_network(seed, peers=20, tuples=150)
        handler = TopKHandler(LinearScore([1, 0.5]), 3)
        rng = np.random.default_rng(seed)
        initiator = overlay.random_peer(rng)
        recursive = run_ripple(initiator, handler, r,
                               restriction=overlay.domain())
        message_level = event_driven_ripple(initiator, handler, r,
                                            restriction=overlay.domain())
        assert message_level.answer == recursive.answer
        assert message_level.stats.latency == recursive.stats.latency
        assert message_level.stats.processed == recursive.stats.processed


class TestRequestRegistry:
    """The supervised-request registry (:class:`_RequestEntry`).

    Regression cover for the refactor that replaced the registry's raw
    ``(incarnation, result-or-sentinel)`` bookkeeping with an explicit
    dataclass: in-progress entries must read as result-less (never as an
    empty result), and duplicate deliveries under message loss must be
    answered from the cached result, keeping answers exact.
    """

    def test_entry_starts_in_progress(self):
        from repro.net.eventsim import _RequestEntry

        entry = _RequestEntry(incarnation=2)
        assert entry.result is None  # in progress, not "empty answer"
        entry.result = []
        assert entry.result == []  # an empty cached result is distinct

    def test_lossy_run_stays_exact(self):
        from repro.net.faults import FaultPlan, resilient_ripple

        overlay = midas_network(9, peers=24, tuples=200)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[3]
        baseline = run_ripple(initiator, handler, 1,
                              restriction=overlay.domain())
        lossy = resilient_ripple(
            initiator, handler, 1, restriction=overlay.domain(),
            faults=FaultPlan(seed=11, drop_prob=0.3))
        assert lossy.answer == baseline.answer
        assert lossy.stats.completeness == 1.0
        # Loss forced retransmissions, i.e. the dedup path actually ran.
        assert lossy.stats.dropped_messages > 0
