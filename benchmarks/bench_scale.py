"""Arena scale benchmark and the BENCH_scale.json regression baseline.

Builds MIDAS networks as structure-of-arrays arenas
(:func:`repro.overlays.arena_build.midas_arena`) at 1k–1M peers and runs
one seeded top-k and one seeded skyline query per size through the
batched wavefront engine.  Every row records:

* the deterministic query facts — processed peers, hop latency, answer
  checksums — which are pinned **exactly** against the baseline (the
  network and the queries are fully seeded, so any drift is a behavior
  change, not noise);
* a ``parity`` flag: the same queries re-run through the scalar
  depth-first engine must produce bit-identical answers and
  ``QueryStats`` (the wavefront's contract, enforced at every size
  including 1M);
* wall-clock build/query seconds and the process peak RSS, which are
  tolerance-banded (CI machines are slow, noisy, and shared).

Usage::

    # refresh the committed baseline (includes the 1M-peer row)
    PYTHONPATH=src python -m benchmarks.bench_scale --record

    # CI gate: 1k/10k rows, compare against the committed baseline
    PYTHONPATH=src python -m benchmarks.bench_scale --smoke \
        --compare BENCH_scale.json --out bench_scale_smoke.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from repro.common.scoring import LinearScore
from repro.obs.clock import wallclock
from repro.overlays.arena_build import midas_arena
from repro.overlays.arena import wavefront_execute
from repro.queries.skyline import distributed_skyline
from repro.queries.topk import distributed_topk

from ._gate import (add_gate_arguments, compare_rss, gate, log,
                    peak_rss_mib, seeded_rng, write_json)

BASELINE_PATH = "BENCH_scale.json"

#: Peer counts per mode.  Smoke stays under a second; the full 1M row is
#: record-mode only (it is a scale demonstration, not a CI-friendly gate).
SMOKE_SIZES = (1_000, 10_000)
DEFAULT_SIZES = (1_000, 10_000, 100_000)
RECORD_SIZES = (1_000, 10_000, 100_000, 1_000_000)

_DIMS = 2
_SEED = 9
_WEIGHTS = (0.3, 0.7)
_K = 10

#: Tuples per network: a few rows per peer, capped so the 1M-peer row
#: measures substrate + engine scale rather than raw data volume.
_TUPLE_CAP = 2_000_000


def _stats_dict(result):
    return dataclasses.asdict(result.stats)


def _topk_checksum(answer):
    return round(float(sum(score for score, _ in answer)), 9)


def _skyline_checksum(answer):
    return round(float(sum(sum(point) for point in answer)), 9)


def scale_row(peers, *, log=lambda msg: None):
    """Build one arena and measure its seeded top-k + skyline queries."""
    rng = seeded_rng(_SEED + peers)
    tuples = min(5 * peers, _TUPLE_CAP)
    data = rng.random((tuples, _DIMS)) * 0.999

    start = wallclock()
    arena = midas_arena(peers, dims=_DIMS, seed=_SEED, data=data)
    build_s = wallclock() - start
    initiator = arena.peer(0)
    fn = LinearScore(_WEIGHTS)

    start = wallclock()
    topk = distributed_topk(initiator, fn, _K, restriction=arena.domain(),
                            executor=wavefront_execute)
    topk_s = wallclock() - start
    start = wallclock()
    sky = distributed_skyline(initiator, _DIMS, restriction=arena.domain(),
                              executor=wavefront_execute)
    sky_s = wallclock() - start

    # The wavefront contract, enforced at every size: bit-identical
    # answers and stats versus the scalar depth-first engine.
    scalar_topk = distributed_topk(initiator, fn, _K,
                                   restriction=arena.domain())
    scalar_sky = distributed_skyline(initiator, _DIMS,
                                     restriction=arena.domain())
    parity = (topk.answer == scalar_topk.answer
              and _stats_dict(topk) == _stats_dict(scalar_topk)
              and sky.answer == scalar_sky.answer
              and _stats_dict(sky) == _stats_dict(scalar_sky))

    row = {
        "peers": peers,
        "tuples": tuples,
        "build_s": round(build_s, 4),
        "substrate_mib": round(arena.nbytes() / (1024 * 1024), 2),
        "topk": {"latency": topk.stats.latency,
                 "processed": topk.stats.processed,
                 "checksum": _topk_checksum(topk.answer),
                 "seconds": round(topk_s, 4)},
        "skyline": {"latency": sky.stats.latency,
                    "processed": sky.stats.processed,
                    "size": len(sky.answer),
                    "checksum": _skyline_checksum(sky.answer),
                    "seconds": round(sky_s, 4)},
        "parity": parity,
        "peak_rss_mib": round(peak_rss_mib(), 1),
    }
    log(f"peers={peers}: build {build_s:.2f}s, "
        f"topk {topk_s * 1e3:.0f}ms ({topk.stats.processed} processed), "
        f"skyline {sky_s * 1e3:.0f}ms ({sky.stats.processed} processed), "
        f"parity={'ok' if parity else 'FAIL'}")
    return row


#: Deterministic per-row facts pinned exactly by the compare gate.
_EXACT_QUERY_KEYS = ("latency", "processed", "checksum")


def compare(fresh, baseline, tolerance):
    """Exact-pin the deterministic facts, band the wall/RSS columns."""
    failures = []
    recorded_rows = {row["peers"]: row for row in baseline.get("rows", [])}
    for row in fresh.get("rows", []):
        recorded = recorded_rows.get(row["peers"])
        if recorded is None:
            continue  # sizes differ between --smoke and --record
        label = f"peers={row['peers']}"
        if not row["parity"]:
            failures.append(f"{label}: wavefront/scalar parity broken")
        for field in ("tuples", "substrate_mib"):
            if row[field] != recorded[field]:
                failures.append(f"{label}: {field} {row[field]} != "
                                f"recorded {recorded[field]}")
        for query in ("topk", "skyline"):
            keys = _EXACT_QUERY_KEYS + (("size",) if query == "skyline"
                                        else ())
            for key in keys:
                if row[query][key] != recorded[query][key]:
                    failures.append(
                        f"{label}: {query}.{key} {row[query][key]} != "
                        f"recorded {recorded[query][key]}")
            ceiling = recorded[query]["seconds"] * tolerance
            if row[query]["seconds"] > max(ceiling, 0.5):
                failures.append(
                    f"{label}: {query} took {row[query]['seconds']:.2f}s, "
                    f"over {tolerance:g}x recorded "
                    f"{recorded[query]['seconds']:.2f}s")
        ceiling = recorded["build_s"] * tolerance
        if row["build_s"] > max(ceiling, 0.5):
            failures.append(
                f"{label}: build took {row['build_s']:.2f}s, over "
                f"{tolerance:g}x recorded {recorded['build_s']:.2f}s")
        failures.extend(compare_rss(
            row["peak_rss_mib"], recorded["peak_rss_mib"],
            label=label, tolerance=0.5))
    return failures


def run(sizes, *, log=lambda msg: None):
    return {
        "meta": {"sizes": list(sizes), "dims": _DIMS, "seed": _SEED,
                 "k": _K, "weights": list(_WEIGHTS),
                 "python": sys.version.split()[0],
                 "numpy": np.__version__},
        "rows": [scale_row(peers, log=log) for peers in sizes],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="arena substrate scale benchmark (100k-1M peers)")
    add_gate_arguments(
        parser, baseline_path=BASELINE_PATH, default_tolerance=4.0,
        tolerance_help="wall-clock ceiling as a multiple of the recorded "
                       "seconds (default 4.0: CI machines are noisy); "
                       "deterministic row facts are always pinned exactly")
    parser.add_argument("--sizes", type=int, nargs="*", default=None,
                        help="explicit peer counts (overrides mode sizes)")
    args = parser.parse_args(argv)

    sizes = args.sizes
    if sizes is None:
        sizes = (SMOKE_SIZES if args.smoke
                 else RECORD_SIZES if args.record else DEFAULT_SIZES)

    fresh = run(sizes, log=log)

    if args.record:
        write_json(BASELINE_PATH, fresh)
        log(f"wrote baseline {BASELINE_PATH}")
    if args.out:
        write_json(args.out, fresh)
        log(f"wrote {args.out}")
    if not (args.record or args.out):
        print(json.dumps(fresh, indent=2))

    if any(not row["parity"] for row in fresh["rows"]):
        log("REGRESSION wavefront/scalar parity broken")
        return 1
    if args.compare:
        return gate(fresh, args.compare, compare, args.tolerance,
                    passed=f"compare gate passed against {args.compare} "
                           f"(tolerance {args.tolerance})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
