"""Seeded structural identity of the four churn-capable overlays.

MIDAS/CAN share the split-tree substrate and Chord/skip graph the ring
substrate (``repro.overlays.substrate``); what a seed builds is part of
the repo's contract, because every ``BENCH_*`` gate and ``bench_layers``
pin simulated counters of seeded worlds at tolerance 0.  The digests
below were recorded at the commit *before* the substrates were unified
(916e889) — the ``skipgraph-grown`` rows, added when the skip graph's
tower-size override went, at c507b19 — and pin, after one fixed build/churn script, every peer's id,
zone, store contents, link table and replica placement plus the
overlay RNG's position.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro import CanOverlay, ChordOverlay, MidasOverlay, SkipGraphOverlay
from repro.common.store import LocalStore
from repro.overlays.substrate import (RingOverlay, SplitTreeOverlay,
                                      SubstratePeer)

from tests.netlib import (DIMS, OVERLAYS, build_network, ring_arc,
                          seed_data)

#: name -> (constructor, dims); the first four are the netlib kinds, the
#: rest cover the hooks that differ inside a family (MIDAS split rule and
#: link policy, CAN data joins, skip graph's join-by-join growth).
CASES = {
    "midas": (lambda seed: MidasOverlay(2, size=1, seed=seed,
                                        join_policy="data"), 2),
    "can": (lambda seed: CanOverlay(2, size=1, seed=seed), 2),
    "chord": (lambda seed: ChordOverlay(size=12, seed=seed), 1),
    "skipgraph": (lambda seed: SkipGraphOverlay(size=12, seed=seed), 1),
    "midas-median-boundary": (
        lambda seed: MidasOverlay(3, size=4, seed=seed, split_rule="median",
                                  link_policy="boundary"), 3),
    "can-data": (lambda seed: CanOverlay(2, size=4, seed=seed,
                                         join_policy="data"), 2),
    "skipgraph-grown": (
        lambda seed: SkipGraphOverlay(size=1, seed=seed), 1),
}
SEEDS = (0, 1)

RECORDED = {
    ("midas", 0):
        "82b6710ecf5557f4920de0ef60164c267df7106126c9593786855b79f6c8352b",
    ("midas", 1):
        "2fbca5ed8b8e81fba65e0dd63eb2d9ce9702d8e9a2369aae8a2bb3960207c141",
    ("can", 0):
        "84cdcdd65ca681bd40bcc0caf6a9ac50725b38d56a297ca5aa780e6775f8528c",
    ("can", 1):
        "e7ed8be54757146e7f9fd384a1c6cb06a6f031c07b24bc536703c24df39037dc",
    ("chord", 0):
        "5c47d29031a69227f62a8d348dfa774571ac719a4a11ac2d1e1213b92d651a9e",
    ("chord", 1):
        "7239fc106d9d2d59c48b2e646e4fee2cdc09108cda57b90ac9ac03d4d4e132b2",
    ("skipgraph", 0):
        "1b1bf533cfe78bb0ac9d74141a9e2471ea0ea10d373d5cea021231d5eceb7c10",
    ("skipgraph", 1):
        "225e5eef9d3dd52dac96e1bbf4b74fc94fbde99b62e238047318064b7ef11ca4",
    ("midas-median-boundary", 0):
        "9acf01dd85ce13730f1bb146320a99c308bcacead6447460d21f158554972ddf",
    ("midas-median-boundary", 1):
        "2e24cd614740f9c18021df57b5c0f0d6b88dc57a2ed553af317136455948af78",
    ("can-data", 0):
        "0af09c8aea1a261d9e9ad546a22bcb3343ad35cc8651bf62202c147f16a67a3c",
    ("can-data", 1):
        "52ce2771a7ae0026870a0bd7c53080ce94d7ea6163277c8a9002a24b258edbd5",
    ("skipgraph-grown", 0):
        "6e88dfae1cbbe075aba27179fc418d2811bd8dd592fd14350690e2f82ee55ae4",
    ("skipgraph-grown", 1):
        "ac8ab38ddb3d5081b6a71a2365f94572af2d3a4d363017c024a47c29ef14adec",
}


def script(case, seed):
    """Run the fixed build/churn script, yielding ``(step, overlay)``."""
    build, dims = CASES[case]
    overlay = build(seed)
    yield "construct", overlay
    overlay.load(seed_data(seed, 200, dims))
    yield "load", overlay
    overlay.grow_to(24)
    yield "grow", overlay
    for _ in range(6):
        overlay.join()
        yield "join", overlay
    victims = np.random.default_rng(seed + 77)
    for _ in range(6):
        peers = overlay.peers()
        overlay.leave(peers[int(victims.integers(len(peers)))])
        yield "leave", overlay
    for _ in range(2):
        overlay.leave()
        yield "leave", overlay
    overlay.load(seed_data(seed + 1, 60, dims))
    yield "load", overlay


def digest(overlay):
    sha = hashlib.sha256()
    for peer in sorted(overlay.peers(), key=lambda p: p.peer_id):
        sha.update(repr((
            peer.peer_id,
            repr(peer.zone),
            sorted(peer.store.iter_points()),
            [(link.peer.peer_id, repr(link.region))
             for link in peer.links()],
            [t.peer_id for t in overlay.replica_targets(peer, 2)],
        )).encode())
    sha.update(repr(float(overlay.rng.random())).encode())
    return sha.hexdigest()


def stored(overlay):
    return Counter(point for peer in overlay.peers()
                   for point in peer.store.iter_points())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
class TestSeededWorlds:
    def test_structure_matches_recorded_digest(self, case, seed):
        *_, (_, overlay) = script(case, seed)
        assert digest(overlay) == RECORDED[case, seed]

    def test_tuples_conserved_and_epoch_moves(self, case, seed):
        dims = CASES[case][1]
        loaded = Counter()
        batches = iter((seed_data(seed, 200, dims),
                        seed_data(seed + 1, 60, dims)))
        epoch = None
        for step, overlay in script(case, seed):
            if step == "load":
                loaded.update(map(tuple, next(batches).tolist()))
            elif step in ("join", "leave"):
                assert overlay.epoch != epoch, step
            epoch = overlay.epoch
            assert stored(overlay) == loaded, step
            assert overlay.total_tuples() == sum(loaded.values())


def _rows(dims, value):
    """Three valid rows with ``value`` planted in row 1."""
    rows = np.full((3, dims), 0.5)
    rows[1, -1] = value
    return rows


#: case -> (dims -> bad input, what the error must name)
BAD_LOADS = {
    "nan": (lambda dims: _rows(dims, np.nan), "row 1"),
    "inf": (lambda dims: _rows(dims, np.inf), "row 1"),
    "above-domain": (lambda dims: _rows(dims, 1.5), "row 1"),
    "below-domain": (lambda dims: _rows(dims, -0.25), "row 1"),
    # ring overlays take (m,) as m keys, so their wrong rank is 3
    "wrong-rank": (lambda dims: np.full((3,) if dims > 1 else (3, 1, 1),
                                        0.5), "shape"),
    "wrong-width": (lambda dims: np.full((10, dims + 1), 0.5),
                    r"shape \(10, "),
}


class TestLoadBoundary:
    @pytest.mark.parametrize("case", BAD_LOADS)
    @pytest.mark.parametrize("kind", OVERLAYS)
    def test_load_rejects_garbage(self, kind, case):
        overlay = build_network(kind, 2, peers=8, tuples=40)
        before = stored(overlay)
        make, names = BAD_LOADS[case]
        with pytest.raises(ValueError, match=names):
            overlay.load(make(DIMS[kind]))
        assert stored(overlay) == before

    @pytest.mark.parametrize("kind", ("chord", "skipgraph"))
    def test_ring_load_takes_flat_keys(self, kind):
        overlay = build_network(kind, 2, peers=8, tuples=0)
        overlay.load(np.array([0.0, 0.25, 0.999]))
        overlay.load(np.array([[0.5], [0.75]]))
        assert sorted(stored(overlay)) == [(0.0,), (0.25,), (0.5,), (0.75,),
                                           (0.999,)]
        for peer in overlay.peers():
            assert all(ring_arc(peer).contains(point)
                       for point in peer.store.iter_points())


class TestContractIsAType:
    @pytest.mark.parametrize("base", (SplitTreeOverlay, RingOverlay))
    def test_base_without_replica_targets_is_abstract(self, base):
        assert base.__abstractmethods__ == {"replica_targets"}
        partial = type("Partial" + base.__name__, (base,), {})
        with pytest.raises(TypeError, match="replica_targets"):
            partial(2)

    @pytest.mark.parametrize("kind", OVERLAYS)
    def test_peers_carry_the_replication_slots(self, kind):
        overlay = build_network(kind, 3, peers=8, tuples=40)
        for peer in overlay.peers():
            assert isinstance(peer, SubstratePeer)
            assert peer.replicas == {}
            assert isinstance(peer.store, LocalStore)
            assert not hasattr(peer, "__dict__")
        for name in ("store", "replicas"):
            assert name in SubstratePeer.__slots__
