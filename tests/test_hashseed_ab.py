"""The hash-randomization A/B harness.

Runs ``tools/hashseed_ab`` as a real subprocess (the same invocation CI
uses) and pins its contract: identical canonical output under two
``PYTHONHASHSEED`` values, exit 0, and a non-trivial battery (every
substrate and engine represented in the snapshot).
"""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "hashseed_ab"


def test_ab_battery_is_hash_seed_invariant():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "0", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "identical answers and QueryStats" in proc.stdout


def test_emit_snapshot_covers_every_engine():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--emit"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    snapshot = json.loads(proc.stdout)
    assert set(snapshot) == {
        "recursive_topk", "skyline", "event_driven_topk", "can_topk",
        "skipgraph_topk", "resilient_churn", "workload", "cached_workload",
        "weighted_fair_workload", "arena_wavefront", "diversify",
        "chord_mirror_topk", "can_mirror_topk"}
    for name, entry in snapshot.items():
        assert entry.get("answer", True), f"empty answer in {name}"
    assert snapshot["resilient_churn"]["stats"]["timeouts"] > 0
    assert snapshot["cached_workload"]["cache_hits"] > 0
    for name in ("workload", "cached_workload", "weighted_fair_workload"):
        assert snapshot[name]["completed"] > 0
        assert snapshot[name]["errors"] == 0
