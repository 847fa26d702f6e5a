"""The summary step of ``tools/ab_pairs`` on canned result lines."""

import importlib.machinery
import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
_LOADER = importlib.machinery.SourceFileLoader(
    "ab_pairs", str(REPO / "tools" / "ab_pairs"))
_SPEC = importlib.util.spec_from_loader("ab_pairs", _LOADER)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_LOADER.exec_module(ab_pairs)

METRICS = [
    {"name": "queries_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peers_per_query", "unit": "peers", "better": "lower",
     "bound": 0.2},
]


def line(qps, setup, peers=137.3):
    """A result line as ``bench_layers`` prints it, parsed."""
    return json.loads(json.dumps({
        "correct": True, "attempted": 100, "failed": 0, "metrics": {
            "queries_per_s": {"value": qps, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peers_per_query": {"value": peers, "unit": "peers"}}}))


def rows_by_metric(base, change):
    return {row["metric"]: row
            for row in ab_pairs.summarize(base, change, METRICS)}


def test_a_clear_gain_is_held_and_nothing_is_flagged():
    base = [line(100 + i, 0.10) for i in range(10)]
    change = [line(130 + i, 0.10) for i in range(10)]
    rows = rows_by_metric(base, change)
    qps = rows["queries_per_s"]
    assert qps["wins"] == 10 and qps["pairs"] == 10
    assert qps["gain"] and not qps["worse"]
    assert qps["base"] == (102.25, 104.5, 106.75)
    assert abs(qps["change_ratio"] - 134.5 / 104.5) < 1e-12
    # equal everywhere: no wins, no gain, no flag
    for name in ("setup_s", "peers_per_query"):
        assert rows[name]["wins"] == 0
        assert not rows[name]["gain"] and not rows[name]["worse"]


def test_eight_wins_in_ten_hold_no_claim():
    base = [line(100, 0.1) for _ in range(10)]
    change = [line(150, 0.1)] * 8 + [line(90, 0.1)] * 2
    row = rows_by_metric(base, change)["queries_per_s"]
    assert row["wins"] == 8 and not row["gain"]


def test_a_median_gap_inside_the_base_spread_holds_no_claim():
    base = [line(v, 0.1) for v in (80, 90, 100, 110, 120) * 2]
    change = [line(v + 5, 0.1) for v in (80, 90, 100, 110, 120) * 2]
    row = rows_by_metric(base, change)["queries_per_s"]
    assert row["wins"] == 10 and not row["gain"]


def test_worse_than_the_bound_is_flagged_in_either_direction():
    base = [line(100, 0.100) for _ in range(4)]
    change = [line(70, 0.126) for _ in range(4)]
    rows = rows_by_metric(base, change)
    assert rows["queries_per_s"]["worse"]      # -30 % against 25 %
    assert rows["setup_s"]["worse"]            # +26 % against 25 %
    assert not rows["peers_per_query"]["worse"]
    change = [line(80, 0.124) for _ in range(4)]
    rows = rows_by_metric(base, change)
    assert not rows["queries_per_s"]["worse"]  # -20 % is inside
    assert not rows["setup_s"]["worse"]


def test_a_metric_one_side_lacks_is_skipped_and_one_pair_renders():
    base = [line(100, 0.1)]
    change = [line(120, 0.1)]
    del change[0]["metrics"]["peers_per_query"]
    rows = ab_pairs.summarize(base, change, METRICS)
    assert [row["metric"] for row in rows] == ["queries_per_s", "setup_s"]
    assert rows[0]["base"] == (100, 100, 100)
    text = ab_pairs.render("skyline_static", rows)
    assert text.splitlines()[0] == "== skyline_static"
    assert "1/1" in text and "gain" in text
