"""Kernel microbenchmarks and the BENCH_kernels.json regression baseline.

Times the vectorized rank-query kernels (array skyline, skyline merge,
the store's cached top-k score index) against faithful copies
of the pre-optimization implementations, plus fig7/fig8-style end-to-end
skyline sweeps over a 200-peer MIDAS network run once with and once
without the kernel/caching fast paths.  Every timed pair is also a
correctness check: legacy and current answers must match exactly.

Usage::

    # refresh the committed baseline (full sizes, writes BENCH_kernels.json)
    PYTHONPATH=src python -m benchmarks.bench_kernels --record

    # CI gate: small sizes, compare fresh speedups against the baseline
    PYTHONPATH=src python -m benchmarks.bench_kernels --smoke \
        --compare BENCH_kernels.json --out bench_kernels_smoke.json

The compare gate is a *tolerance* gate: a fresh speedup may fall to
``tolerance * recorded`` (CI machines are slow and noisy) but never below
break-even — catching a regression that silently reverts a kernel to its
quadratic-copying past without flaking on absolute wall-clock numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from repro.common.geometry import as_point
from repro.common.store import LocalStore
from repro.core.framework import SLOW
from repro.experiments import builders
from repro.obs.clock import wallclock
from repro.queries.skyline import (distributed_skyline, merge_skylines,
                                   skyline_of_array, skyline_reference)

from ._gate import add_gate_arguments, gate, log, seeded_rng, write_json
from .conftest import bench_config

BASELINE_PATH = "BENCH_kernels.json"

# -- legacy kernels (verbatim pre-optimization implementations) --------------
# These are the seed-tree kernels: incremental vstack survivor matrix,
# 2-ary merge with separate <=/< tensors, and a score-everything top-k retrieval.  They are the speedup denominators and
# the correctness oracles for everything below.


def legacy_skyline_of_array(array):
    array = np.asarray(array, dtype=float)
    if len(array) == 0:
        return array
    sums = array.sum(axis=1)
    keys = tuple(array[:, dim] for dim in range(array.shape[1] - 1, -1, -1))
    order = np.lexsort(keys + (sums,))
    data = array[order]
    kept_rows = []
    kept_matrix = np.empty((0, array.shape[1]))
    for row in data:
        if len(kept_rows):
            not_worse = np.all(kept_matrix <= row, axis=1)
            strictly = np.any(kept_matrix < row, axis=1)
            if np.any(not_worse & strictly):
                continue
        kept_rows.append(row)
        kept_matrix = np.vstack([kept_matrix, row]) if len(kept_rows) > 1 \
            else row[None, :]
    return np.array(kept_rows)


def legacy_merge_skylines(first, second):
    first = [p for p in dict.fromkeys(first)]
    second = [p for p in dict.fromkeys(second) if p not in set(first)]
    if not first or not second:
        return sorted([*first, *second])
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    le = a[:, None, :] <= b[None, :, :]
    lt = a[:, None, :] < b[None, :, :]
    a_dominates_b = le.all(axis=2) & lt.any(axis=2)
    b_dominates_a = (b[:, None, :] <= a[None, :, :]).all(axis=2) \
        & (b[:, None, :] < a[None, :, :]).any(axis=2)
    keep_a = ~b_dominates_a.any(axis=0)
    keep_b = ~a_dominates_b.any(axis=0)
    return sorted([p for p, k in zip(first, keep_a) if k]
                  + [p for p, k in zip(second, keep_b) if k])


def legacy_merge_fold(*collections):
    """N-ary shim over the 2-ary legacy merge (the pre-change call shape)."""
    if not collections:
        return []
    acc = list(dict.fromkeys(collections[0]))
    for other in collections[1:]:
        acc = legacy_merge_skylines(acc, other)
    return acc


def legacy_top_scoring(store, fn, limit, *, above=-np.inf):
    """Pre-change LocalStore.top_scoring: re-scores the array every call."""
    if len(store) == 0 or limit <= 0:
        return []
    scores = fn.score_batch(store.array)
    eligible = np.flatnonzero(scores >= above)
    if len(eligible) == 0:
        return []
    order = eligible[np.argsort(-scores[eligible], kind="stable")][:limit]
    return [(float(scores[i]), as_point(store.array[i])) for i in order]


@contextmanager
def legacy_mode():
    """Run end-to-end queries on the pre-optimization code paths.

    Swaps the module-level skyline kernels for their legacy copies and
    disables the store's version-keyed computation cache, restoring the
    double-reduction-per-peer behavior the cache exists to remove.
    """
    import repro.queries.skyline as sky

    saved = (sky.skyline_of_array, sky.merge_skylines,
             LocalStore.cache_enabled)
    sky.skyline_of_array = legacy_skyline_of_array
    sky.merge_skylines = legacy_merge_fold
    LocalStore.cache_enabled = False
    try:
        yield
    finally:
        (sky.skyline_of_array, sky.merge_skylines,
         LocalStore.cache_enabled) = saved


# -- timing helpers ----------------------------------------------------------


def best_of(fn, reps):
    best, result = float("inf"), None
    for _ in range(reps):
        start = wallclock()
        result = fn()
        best = min(best, wallclock() - start)
    return best, result


def entry(legacy_s, current_s, **extra):
    return {"legacy_s": round(legacy_s, 6), "current_s": round(current_s, 6),
            "speedup": round(legacy_s / current_s, 2), **extra}


# -- kernel microbenchmarks --------------------------------------------------


def kernel_suite(*, n, reps, log):
    rng = seeded_rng(7)
    out = {}

    for dims in (2, 4, 6):
        data = rng.random((n, dims))
        tl, rl = best_of(lambda: legacy_skyline_of_array(data), reps)
        tc, rc = best_of(lambda: skyline_of_array(data), reps)
        assert np.array_equal(rl, rc), f"skyline mismatch at d={dims}"
        out[f"skyline_d{dims}"] = entry(tl, tc, n=n, dims=dims,
                                             skyline=len(rc))
        log(f"skyline n={n} d={dims}: {tl / tc:.1f}x")

    # duplicate-heavy input exercises the collapse/re-expand path
    dup = np.repeat(rng.random((max(n // 8, 1), 3)), 8, axis=0)
    rng.shuffle(dup)
    tl, rl = best_of(lambda: legacy_skyline_of_array(dup), reps)
    tc, rc = best_of(lambda: skyline_of_array(dup), reps)
    assert np.array_equal(rl, rc), "skyline mismatch on duplicates"
    out["skyline_dup_d3"] = entry(tl, tc, n=len(dup), dims=3)
    log(f"skyline duplicates n={len(dup)}: {tl / tc:.1f}x")

    # folding 16 partial skylines — the shape of Algorithm 13 at a
    # sequential peer with many children
    parts = []
    for _ in range(16):
        chunk = rng.random((max(n // 16, 2), 4))
        parts.append(sorted(as_point(row)
                            for row in legacy_skyline_of_array(chunk)))
    tl, rl = best_of(lambda: legacy_merge_fold(*parts), reps)
    tc, rc = best_of(lambda: merge_skylines(*parts), reps)
    assert rl == rc, "merge mismatch"
    out["merge_fold16_d4"] = entry(tl, tc, parts=16, dims=4)
    log(f"merge fold 16 parts: {tl / tc:.1f}x")

    # cached score index: one top-k sweep = many top_scoring calls with a
    # tightening threshold against a static store
    from repro.common.scoring import LinearScore

    store = LocalStore(4)
    store.bulk_load(rng.random((n, 4)))
    fn = LinearScore((0.4, 0.3, 0.2, 0.1))
    taus = np.linspace(0.0, 0.8, 25)

    def sweep(top_scoring):
        return [top_scoring(fn, 16, above=float(tau)) for tau in taus]

    tl, rl = best_of(lambda: sweep(
        lambda f, lim, above: legacy_top_scoring(store, f, lim,
                                                 above=above)), reps)
    tc, rc = best_of(lambda: sweep(
        lambda f, lim, above: store.top_scoring(f, lim, above=above)), reps)
    assert rl == rc, "top_scoring mismatch"
    out["topk_index"] = entry(tl, tc, n=n, calls=len(taus))
    log(f"top-k score index ({len(taus)} calls): {tl / tc:.1f}x")

    return out


# -- end-to-end sweeps (fig7/fig8 shape) -------------------------------------


def e2e_suite(*, peers, tuples, reps, log):
    config = bench_config().scaled(nba_tuples=tuples, synth_tuples=tuples,
                                   synth_clusters=max(tuples // 20, 10))
    out = {}
    for name, data in (("fig7_nba", builders.nba_min(config, 7)),
                       ("fig8_synth_d6", builders.synth(config, 6, 7))):
        overlay = builders.build_midas(data, peers, 7,
                                       link_policy="boundary")
        dims = data.shape[1]
        rng = seeded_rng(11)
        initiators = [overlay.random_peer(rng) for _ in range(2)]
        reference = skyline_reference(data)

        def sweep():
            results = []
            for initiator in initiators:
                for r in (0, SLOW):
                    results.append(distributed_skyline(
                        initiator, dims, restriction=overlay.domain(), r=r))
            return results

        with legacy_mode():
            tl, legacy_results = best_of(sweep, reps)
        tc, current_results = best_of(sweep, reps)
        for old, new in zip(legacy_results, current_results):
            assert old.answer == new.answer == reference, \
                f"{name}: legacy/current answers diverge"
        key = name
        out[key] = entry(tl, tc, peers=peers, tuples=tuples, dims=dims,
                         queries=len(initiators) * 2)
        log(f"{key}: {tl / tc:.1f}x")
    return out


# -- baseline compare gate ---------------------------------------------------


def compare(fresh, baseline, tolerance):
    """Tolerance-gated regression check; returns failure strings."""
    failures = []
    for section in ("kernels", "end_to_end"):
        for name, recorded in baseline.get(section, {}).items():
            now = fresh.get(section, {}).get(name)
            if now is None:
                continue  # sizes differ between --smoke and --record
            floor = max(1.0, recorded["speedup"] * tolerance)
            if now["speedup"] < floor:
                failures.append(
                    f"{section}/{name}: speedup {now['speedup']:.2f}x below "
                    f"floor {floor:.2f}x (recorded {recorded['speedup']:.2f}x"
                    f" * tolerance {tolerance})")
    return failures


def run(*, n, peers, tuples, reps, log=lambda msg: None):
    return {
        "meta": {"n": n, "peers": peers,
                 "tuples": tuples, "reps": reps,
                 "python": sys.version.split()[0],
                 "numpy": np.__version__},
        "kernels": kernel_suite(n=n, reps=reps, log=log),
        "end_to_end": e2e_suite(peers=peers, tuples=tuples, reps=reps,
                                log=log),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="rank-query kernel micro/e2e benchmarks")
    add_gate_arguments(
        parser, baseline_path=BASELINE_PATH, default_tolerance=0.3,
        tolerance_help="fraction of a recorded speedup a fresh run must "
                       "retain (default 0.3: wall clocks are noisy)")
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--peers", type=int, default=200)
    parser.add_argument("--tuples", type=int, default=8_000)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = 4_000
        args.peers, args.tuples, args.reps = 48, 2_000, 2

    fresh = run(n=args.n, peers=args.peers,
                tuples=args.tuples, reps=args.reps, log=log)

    if args.record:
        write_json(BASELINE_PATH, fresh)
        log(f"wrote baseline {BASELINE_PATH}")
    if args.out:
        write_json(args.out, fresh)
        log(f"wrote {args.out}")
    if not (args.record or args.out):
        print(json.dumps(fresh, indent=2))

    if args.compare:
        return gate(fresh, args.compare, compare, args.tolerance,
                    passed=f"compare gate passed against {args.compare} "
                           f"(tolerance {args.tolerance})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
