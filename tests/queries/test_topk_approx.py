"""Tests for approximate (epsilon-relaxed) top-k retrieval."""

import numpy as np
import pytest

from repro import LinearScore, MidasOverlay, run_slow
from repro.queries.topk import TopKHandler, topk_reference


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(77)
    data = rng.random((2000, 3)) * 0.999
    overlay = MidasOverlay(3, size=1, seed=6, join_policy="data")
    overlay.load(data)
    overlay.grow_to(96)
    return overlay, data


class TestApproximateTopK:
    def test_epsilon_zero_is_exact(self, network):
        overlay, data = network
        fn = LinearScore([1, 1, 1])
        handler = TopKHandler(fn, 8, epsilon=0.0)
        result = run_slow(overlay.random_peer(), handler,
                          restriction=overlay.domain())
        assert [s for s, _ in result.answer] == \
            [s for s, _ in topk_reference(data, fn, 8)]

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            TopKHandler(LinearScore([1]), 3, epsilon=-0.1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # A NaN epsilon made every cutoff NaN: run_ripple on midas seed 0
        # processed 1 of 36 peers and returned a wrong answer.
        with pytest.raises(ValueError, match="epsilon must be finite"):
            TopKHandler(LinearScore([1, 1]), 3, epsilon=epsilon)

    def test_bounded_error(self, network):
        overlay, data = network
        fn = LinearScore([1, 1, 1])
        epsilon = 0.1
        handler = TopKHandler(fn, 8, epsilon=epsilon)
        result = run_slow(overlay.random_peer(), handler,
                          restriction=overlay.domain())
        reference = topk_reference(data, fn, 8)
        for (got, _), (want, _) in zip(result.answer, reference):
            assert got >= want * (1 - epsilon) - 1e-9

    def test_relaxation_reduces_congestion(self, network):
        overlay, _ = network
        fn = LinearScore([1, 1, 1])
        initiator = overlay.peers()[0]
        exact = run_slow(initiator, TopKHandler(fn, 8),
                         restriction=overlay.domain())
        approx = run_slow(initiator, TopKHandler(fn, 8, epsilon=0.5),
                          restriction=overlay.domain())
        assert approx.stats.processed <= exact.stats.processed


class TestAsciiChart:
    def test_renders(self):
        from repro.experiments.runner import Row, ascii_chart

        rows = [Row("f", "n", x, m, latency=x * (1 + i), congestion=1,
                    messages=1, tuples_shipped=0, queries=1)
                for x in (1, 2, 4) for i, m in enumerate(("a", "b"))]
        chart = ascii_chart(rows, "latency")
        assert "latency" in chart
        assert "* = a" in chart and "o = b" in chart

    def test_empty(self):
        from repro.experiments.runner import ascii_chart

        assert ascii_chart([], "latency") == "(no data)"
