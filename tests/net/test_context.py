"""Unit tests for the query cost ledger."""

import pytest

from repro.net.context import (DuplicateVisitError, QueryContext,
                               QueryStats)


class TestQueryStats:
    def test_total_messages(self):
        stats = QueryStats(latency=3, processed=5, forward_messages=4,
                           response_messages=2, answer_messages=1,
                           tuples_shipped=9)
        assert stats.total_messages == 7

    def test_combine_sequential_adds_everything(self):
        first = QueryStats(latency=3, processed=5, forward_messages=4,
                           response_messages=2, answer_messages=1,
                           tuples_shipped=9)
        second = QueryStats(latency=2, processed=1, forward_messages=1,
                            response_messages=0, answer_messages=1,
                            tuples_shipped=3)
        combined = first.combine_sequential(second)
        assert combined.latency == 5
        assert combined.processed == 6
        assert combined.forward_messages == 5
        assert combined.tuples_shipped == 12

    def test_default_is_zero(self):
        stats = QueryStats()
        assert stats.latency == 0 and stats.total_messages == 0
        assert stats.completeness == 1.0
        assert stats.unreachable_volume == 0.0

    def test_as_dict_round_trips_every_field(self):
        import json
        stats = QueryStats(latency=3, processed=5, forward_messages=4,
                           response_messages=2, answer_messages=1,
                           tuples_shipped=9, timeouts=2, retries=1,
                           reroutes=1, dropped_messages=3, ack_messages=4,
                           unreachable_volume=0.125, completeness=0.875)
        payload = stats.as_dict()
        for field, value in (("latency", 3), ("timeouts", 2), ("retries", 1),
                             ("reroutes", 1), ("dropped_messages", 3),
                             ("ack_messages", 4),
                             ("unreachable_volume", 0.125),
                             ("completeness", 0.875),
                             ("total_messages", 7)):
            assert payload[field] == value
        json.dumps(payload)  # plain scalars only

    def test_combine_sequential_sums_fault_counters(self):
        first = QueryStats(latency=3, timeouts=2, retries=1, reroutes=1,
                           dropped_messages=4, ack_messages=5,
                           unreachable_volume=0.1, completeness=0.9)
        second = QueryStats(latency=1, timeouts=1, retries=3,
                            dropped_messages=2, ack_messages=7,
                            unreachable_volume=0.05, completeness=0.95)
        combined = first.combine_sequential(second)
        assert combined.timeouts == 3
        assert combined.retries == 4
        assert combined.reroutes == 1
        assert combined.dropped_messages == 6
        assert combined.ack_messages == 12
        assert combined.unreachable_volume == pytest.approx(0.15)
        # completeness is a min, not a sum: the worst phase dominates
        assert combined.completeness == 0.9


class TestQueryContext:
    def test_answer_collection(self):
        ctx = QueryContext()
        ctx.on_answer(["t1", "t2"], 2)
        ctx.on_answer([], 0)
        assert ctx.collected_answers == [["t1", "t2"], []]
        assert ctx.answer_messages == 1  # empty answers cost nothing
        assert ctx.tuples_shipped == 2

    def test_stats_snapshot(self):
        ctx = QueryContext()
        ctx.begin_processing("a")
        ctx.on_forward()
        ctx.on_response(3)
        stats = ctx.stats(latency=7)
        assert stats.latency == 7
        assert stats.processed == 1
        assert stats.forward_messages == 1
        assert stats.response_messages == 3

    def test_duplicate_error_names_peer(self):
        ctx = QueryContext(strict=True)
        ctx.begin_processing("peer-x")
        with pytest.raises(DuplicateVisitError, match="peer-x"):
            ctx.begin_processing("peer-x")

    def test_fault_counters(self):
        ctx = QueryContext()
        ctx.on_timeout()
        ctx.on_retry()
        ctx.on_retry()
        ctx.on_reroute()
        ctx.on_drop()
        ctx.on_ack()
        ctx.on_ack()
        ctx.on_ack()
        stats = ctx.stats(latency=1)
        assert stats.timeouts == 1
        assert stats.retries == 2
        assert stats.reroutes == 1
        assert stats.dropped_messages == 1
        assert stats.ack_messages == 3

    def test_completeness_accounting(self):
        ctx = QueryContext()
        ctx.restriction_volume = 0.5
        assert ctx.completeness() == 1.0
        ctx.on_unreachable(0.125)
        assert ctx.completeness() == pytest.approx(0.75)
        ctx.on_unreachable(10.0)  # conservative covers can over-account
        assert ctx.completeness() == 0.0  # clamped, never negative

    def test_completeness_with_zero_volume_restriction(self):
        ctx = QueryContext()  # restriction_volume stays 0.0
        assert ctx.completeness() == 1.0
        ctx.on_unreachable(0.1)
        assert ctx.completeness() == 0.0
