"""Self-tests of the benchmark (not under ``testpaths``).

Run explicitly, from the repository root::

    PYTHONPATH=src python -m pytest bench_layers -q

Workloads are built at tiny sizes passed as arguments, so the whole file
takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import LinearScore, topk_reference  # noqa: E402

from bench_layers import spec  # noqa: E402
from bench_layers.compare import compare_documents  # noqa: E402
from bench_layers.estimator import (highest_percentile,  # noqa: E402
                                    per_op_minima, percentile,
                                    quartile_spread)
from bench_layers.oracle import topk_oracle  # noqa: E402
from bench_layers.runner import (end_to_end_metrics, measure,  # noqa: E402
                                 verify)
from bench_layers.single import run_single  # noqa: E402
from bench_layers.tracing import (Recorder, Span,  # noqa: E402
                                  self_time_by_name, self_times)
from bench_layers.workloads import WORKLOADS, make_workload  # noqa: E402

MIDAS = dict(peers=48, tuples=800, clusters=30)
TINY = {
    "topk_static": dict(MIDAS, ops=40, templates=4),
    "skyline_static": dict(MIDAS, ops=12, templates=4),
    "serve_supervised": dict(peers=48, tuples=600, queries=6, horizon=400,
                             recovery=50),
    "serve_zipf_cached": dict(MIDAS, queries=30, topk_templates=5,
                              skyline_templates=2),
    "churn_mutating": dict(MIDAS, steps=24, templates=3, boxes=2),
    "arena_wave": dict(peers=64, tuples=2000, topk=12, skylines=2),
}


def _sim(name: str, seed: int):
    m = measure(make_workload(name, seed, **TINY[name]), 0.0, setups=1)
    assert m.drift is None
    return [q.sim for q in m.passes[0].queries], m


# -- determinism --------------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_ops_and_sim_metrics(name):
    first, m1 = _sim(name, 11)
    again, m2 = _sim(name, 11)
    other, _ = _sim(name, 12)
    assert first == again
    assert first != other
    sim_names = [m.name for m in spec.END_TO_END if m.kind == "sim"]
    e1, e2 = end_to_end_metrics(m1), end_to_end_metrics(m2)
    assert [e1[n][0] for n in sim_names] == [e2[n][0] for n in sim_names]


def test_op_lists_derive_from_the_seed():
    a = make_workload("topk_static", 5, **TINY["topk_static"])
    b = make_workload("topk_static", 5, **TINY["topk_static"])
    c = make_workload("topk_static", 6, **TINY["topk_static"])
    assert a.ops == b.ops and a.ops != c.ops
    assert [f.weights for f in a.fns] == [f.weights for f in b.fns]


# -- correctness checks -------------------------------------------------------

def test_answers_match_the_oracle_and_a_doctored_one_is_named():
    workload = make_workload("churn_mutating", 3, **TINY["churn_mutating"])
    m = measure(workload, 0.0, setups=1)
    queries = m.passes[0].queries
    assert verify(workload, queries) == []
    assert m.passes[0].counters["tuples_conserved"] == 1.0
    queries[4].answer = queries[4].answer[:-1]
    failures = verify(workload, queries)
    assert len(failures) == 1 and f"op {queries[4].op} " in failures[0]


def test_topk_oracle_equals_topk_reference():
    rng = np.random.default_rng(0)
    rows = rng.random((500, 3)).round(2)          # rounding forces ties
    for weights in ([1.0, 1.0, 1.0], [0.8, 1.2, 1.0], [1.0, 0.0, 0.5]):
        fn = LinearScore(weights)
        for k in (1, 7, 40):
            assert topk_oracle(rows, fn, k) == topk_reference(rows, fn, k)


def test_cross_pass_drift_fails_the_run():
    workload = make_workload("topk_static", 3, **TINY["topk_static"])
    passes = iter(range(100))
    real = workload.run_pass

    def drifting(rec):
        out = real(rec)
        if next(passes) == 2:
            q = out.queries[5]
            q.sim = (q.sim[0], q.sim[1], q.sim[2] + 1, q.sim[3])
        return out

    workload.run_pass = drifting
    m = measure(workload, 0.0, setups=1)
    assert m.drift is not None and "op 5 " in m.drift


def test_typed_outcomes_count_as_failures():
    workload = make_workload("serve_supervised", 3,
                             **dict(TINY["serve_supervised"], queries=40,
                                    rate=5.0, faults="off"))
    m = measure(workload, 0.0, setups=1)
    shed = [q for q in m.passes[0].queries if q.failure is not None]
    assert shed and all("shed" in q.failure for q in shed)
    assert len(verify(workload, m.passes[0].queries)) == len(shed)


# -- estimator and spans ------------------------------------------------------

def test_estimator_takes_per_op_minima():
    assert per_op_minima([[3.0, 1.0, 5.0], [2.0, 4.0, 5.5], [2.5, 0.5, 9.0]]) \
        == [2.0, 0.5, 5.0]
    with pytest.raises(ValueError):
        per_op_minima([[1.0], [1.0, 2.0]])
    assert percentile(list(range(1, 101)), 0.90) == 90
    assert percentile([5.0], 0.5) == 5.0
    assert [highest_percentile(n) for n in (2, 99, 100, 200, 1000)] == \
        [1.0, 1.0, 0.90, 0.95, 0.99]
    assert quartile_spread([10.0] * 8) == 0.0


def test_span_self_time_on_a_synthetic_tree():
    spans = [
        Span(0, "root", 0, 100, None, 1),
        Span(1, "child", 10, 40, 0, 1),
        Span(2, "child", 30, 60, 0, 1),      # overlaps its sibling
        Span(3, "leaf", 12, 20, 1, 1),
        Span(4, "late", 90, 120, 0, 1),      # runs past its parent
    ]
    own = self_times(spans)
    assert own == {0: 100 - 50 - 10, 1: 30 - 8, 2: 30, 3: 8, 4: 30}
    assert self_time_by_name(spans)["child"] == (2, 52)


def test_recorder_nests_calls():
    rec = Recorder(trace=True)

    def inner():
        return 1

    def outer():
        return rec.call("inner", 7, inner)[0] + 1

    out, seconds = rec.call("outer", 7, outer)
    assert out == 2 and seconds >= 0
    outer_span, inner_span = rec.spans
    assert inner_span.parent == outer_span.id and outer_span.parent is None
    assert outer_span.start_ns <= inner_span.start_ns <= inner_span.end_ns \
        <= outer_span.end_ns


# -- the declared contract ----------------------------------------------------

def test_benchmark_json_is_what_spec_declares():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    assert "setup_s" in names
    assert all(m.bound <= 0.25 for m in spec.END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_emitted_metric_is_declared_and_vice_versa(name, tmp_path):
    plain = run_single(name, 2, 0.0, False, **TINY[name])
    traced = run_single(name, 2, 0.0, True, trace_dir=str(tmp_path),
                        **TINY[name])
    assert set(plain) == set(traced) == {"correct", "attempted", "failed",
                                         "metrics"}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == \
        {m.name: m.unit for m in spec.END_TO_END}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == \
        {m.name: m.unit for m in spec.PER_LAYER}
    assert all(v["value"] != 0 for v in plain["metrics"].values())
    measured = {m.name for m in spec.PER_LAYER if name in m.measured_on}
    unmeasured = set(traced["metrics"]) - measured
    assert all(traced["metrics"][k]["value"] == 0 for k in unmeasured)
    assert (tmp_path / f"trace-{name}.jsonl").read_text().count("\n") > 0


# -- compare ------------------------------------------------------------------

def _document():
    metrics = {"setup_s": 0.07, "queries_per_s": 450.0, "query_ms_p50": 2.0,
               "query_ms_tail": 4.4, "peak_rss_mib": 62.0,
               "hops_per_query": 25.5, "peers_per_query": 23.75,
               "messages_per_query": 41.5, "tuples_per_query": 42.25}
    return {"seed": 1, "workloads": {"topk_static": {
        "failed_share": 0.0, "metrics": metrics,
        "runs": {k: [v] for k, v in metrics.items()},
        "spread": {k: 0.0 for k in metrics}}}}


def _verdicts(a, b):
    return {row[1]: row[5] for row in compare_documents(a, b)}


def test_compare_flags_a_slowdown_and_a_one_message_drift():
    a = _document()
    assert set(_verdicts(a, copy.deepcopy(a)).values()) == {"ok"}
    slow = copy.deepcopy(a)
    entry = slow["workloads"]["topk_static"]
    entry["metrics"]["query_ms_p50"] *= 1.2
    entry["metrics"]["queries_per_s"] /= 1.2
    verdicts = _verdicts(a, slow)
    assert verdicts["query_ms_p50"] == verdicts["queries_per_s"] == "regressed"
    assert verdicts["query_ms_tail"] == "ok"
    drift = copy.deepcopy(a)
    one_message_in_800_queries = 1 / 800
    drift["workloads"]["topk_static"]["metrics"]["messages_per_query"] += \
        one_message_in_800_queries
    assert _verdicts(a, drift)["messages_per_query"] == "regressed"
    failing = copy.deepcopy(a)
    failing["workloads"]["topk_static"]["failed_share"] = 0.01
    assert _verdicts(a, failing)["failed_share"] == "regressed"


def test_compare_reports_wide_spread_as_unresolved():
    a, b = _document(), _document()
    for doc, runs in ((a, [2.0, 2.4, 1.7]), (b, [2.1, 2.5, 1.8])):
        entry = doc["workloads"]["topk_static"]
        entry["runs"]["query_ms_p50"] = runs
        entry["spread"]["query_ms_p50"] = 0.35
    b["workloads"]["topk_static"]["metrics"]["query_ms_p50"] = 2.1
    assert _verdicts(a, b)["query_ms_p50"] == "unresolved"
    b["workloads"]["topk_static"]["runs"]["query_ms_p50"] = [1.0, 1.1, 1.2]
    b["workloads"]["topk_static"]["metrics"]["query_ms_p50"] = 1.1
    assert _verdicts(a, b)["query_ms_p50"] == "ok"
