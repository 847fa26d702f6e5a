"""The ``scale`` experiment: Lemma 1-3 latency curves at 10k-1M peers.

The paper's latency analysis (Section 3.2) is exact for complete MIDAS
networks, but the object substrate capped its validation at a few
hundred peers.  The arena substrate removes the cap: this target builds
*complete* balanced networks of ``2**depth`` peers as
:class:`~repro.overlays.arena.MidasArena` snapshots (empty stores — the
lemmas are pure traversal facts) and runs never-pruning queries through
the real engines, asserting the measured critical-path latency equals
the closed-form lemma value **exactly**:

* ``fast`` (Lemma 1) runs through the batched wavefront engine at every
  depth — including the paper-scale 2**20 = 1M-peer network;
* ``r=1``/``r=2`` (Lemma 3) and ``slow`` (Lemma 2) are inherently
  sequential traversals of all ``2**depth`` peers, so they are validated
  up to :data:`SEQUENTIAL_DEPTH_CAP` (the lemma formulas are
  depth-parametric — the curve, not the endpoint, is the claim).

Every row also pins ``processed == 2**depth`` (never-pruning queries
must touch every peer) and reports build/query wall seconds, so the
table doubles as a substrate scaling profile.
"""

from __future__ import annotations

from ..common.scoring import LinearScore
from ..core.analysis import fast_latency, ripple_latency, slow_latency
from ..core.framework import SLOW, run_ripple
from ..obs.clock import wallclock
from ..overlays.arena import wavefront_execute
from ..overlays.arena_build import midas_arena
from ..queries.topk import TopKHandler
from .config import ExperimentConfig

__all__ = ["SEQUENTIAL_DEPTH_CAP", "print_scale_rows", "scale_profile"]

#: Sequential-mode traversals (r >= 1, slow) visit all peers one hop at a
#: time in the simulator's inner loop; beyond 2**13 peers they measure
#: Python overhead, not the lemmas, so the curves are validated up to
#: this depth and ``fast`` alone continues to 1M peers.
SEQUENTIAL_DEPTH_CAP = 13

_MODES = (
    ("fast", 0, fast_latency),
    ("r=1", 1, lambda depth: ripple_latency(depth, 1)),
    ("r=2", 2, lambda depth: ripple_latency(depth, 2)),
    ("slow", SLOW, slow_latency),
)


def scale_profile(config: ExperimentConfig) -> list[dict[str, object]]:
    """Lemma-validation rows over complete arenas of ``2**depth`` peers."""
    rows: list[dict[str, object]] = []
    handler = TopKHandler(LinearScore([1.0, 1.0]), 10 ** 9)  # never prunes
    for depth in config.scale_depths:
        start = wallclock()
        arena = midas_arena(1 << depth, dims=2, seed=config.seed,
                            precompute_links=True)
        build_s = wallclock() - start
        for mode, r, formula in _MODES:
            if r != 0 and depth > SEQUENTIAL_DEPTH_CAP:
                continue
            start = wallclock()
            # The wave runs r = 0 and hands r >= 1 to the scalar engine.
            result = run_ripple(arena.peer(0), handler, r,
                                restriction=arena.domain(),
                                executor=wavefront_execute)
            query_s = wallclock() - start
            expected = formula(depth)
            rows.append({
                "depth": depth,
                "peers": 1 << depth,
                "mode": mode,
                "latency": result.stats.latency,
                "lemma": expected,
                "match": result.stats.latency == expected
                and result.stats.processed == (1 << depth),
                "processed": result.stats.processed,
                "build_s": build_s,
                "query_s": query_s,
            })
    return rows


def print_scale_rows(rows: list[dict[str, object]]) -> None:
    header = (f"{'peers':>9s} {'mode':>5s} {'latency':>8s} {'lemma':>8s} "
              f"{'match':>6s} {'processed':>10s} {'build':>7s} {'query':>8s}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['peers']:>9d} {row['mode']:>5s} {row['latency']:>8d} "
              f"{row['lemma']:>8d} {str(row['match']):>6s} "
              f"{row['processed']:>10d} {row['build_s']:>6.1f}s "
              f"{row['query_s']:>7.1f}s")
    if not all(row["match"] for row in rows):
        raise SystemExit("scale: measured latency diverged from Lemmas 1-3")
