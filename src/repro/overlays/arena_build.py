"""Arena builders: mirror an object overlay, or build MIDAS at scale.

Two ways into the structure-of-arrays substrate of
:mod:`repro.overlays.arena`:

* :func:`from_overlay` snapshots an existing object overlay (MIDAS,
  Chord, or CAN) into a :class:`~repro.overlays.arena.MirrorArena` —
  same peer ids, same link order, bit-equal regions and store rows.
  This is the parity bridge: anything measured on the mirror is
  bit-identical to the object substrate.  Mirroring inherently walks the
  object peers once; everywhere else the arena modules never loop over
  the peer range (``tests/test_source_invariants.py`` holds them to it).

* :func:`midas_arena` builds a balanced MIDAS network *directly* as a
  :class:`~repro.overlays.arena.MidasArena`, sized by peer count: tuple
  assignment is a vectorized tree descent and link targets are either
  derived on demand (``precompute_links=False``, O(n) memory) or resolved
  for all links at once with :func:`~repro.common.hashing.mix_array`
  (``precompute_links=True``, for full-traversal workloads).  One million
  peers build in seconds; no per-peer Python objects exist until a query
  actually touches a peer.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..common.hashing import mix_array
from ..core.regions import ArcRegion, FrustumRegion, RectRegion
from .arena import MidasArena, MirrorArena

__all__ = ["from_overlay", "midas_arena"]

#: Replica candidates snapshotted per peer by :func:`from_overlay`; covers
#: every in-repo replication degree with room to spare.
_REPLICA_DEPTH = 4


def from_overlay(overlay: Any, *,
                 replica_depth: int = _REPLICA_DEPTH) -> MirrorArena:
    """Snapshot an object overlay into an exact :class:`MirrorArena`.

    The mirror preserves everything observable through the peer
    protocol: peer ids and their ``peers()`` order, each peer's link
    *order* (it breaks ties under ``r > 0``'s stable priority sort),
    link regions decoded to ``==``-equal ``Region`` objects, store rows,
    liveness, and the first ``replica_depth`` replica candidates.
    """
    peers = list(overlay.peers())
    if not peers:
        raise ValueError("cannot mirror an empty overlay")
    index_of = {p.peer_id: i for i, p in enumerate(peers)}
    dims = peers[0].store.dims
    peer_ids = np.fromiter((p.peer_id for p in peers),
                           dtype=np.int64, count=len(peers))
    sizes = np.fromiter((len(p.store) for p in peers),
                        dtype=np.int64, count=len(peers))
    store_ptr = np.concatenate(([0], np.cumsum(sizes)))
    if store_ptr[-1]:
        tuples = np.concatenate(
            [p.store.array for p in peers
             if len(p.store)], axis=0)
    else:
        tuples = np.empty((0, dims))
    alive = np.fromiter((getattr(p, "alive", True)
                         for p in peers), dtype=bool, count=len(peers))

    all_links = [p.links() for p in peers]
    degrees = np.fromiter((len(ls) for ls in all_links),
                          dtype=np.int64, count=len(peers))
    link_ptr = np.concatenate(([0], np.cumsum(degrees)))
    flat = [link for ls in all_links for link in ls]
    link_target = np.fromiter((index_of[link.peer.peer_id] for link in flat),
                              dtype=np.int64, count=len(flat))
    kind, payload = _encode_regions(flat, dims)

    replica_ptr = np.zeros(len(peers) + 1, dtype=np.int64)
    replica_rows: list[int] = []
    if hasattr(overlay, "replica_targets"):
        depth = min(replica_depth, len(peers) - 1)
        for i, peer in enumerate(peers):
            targets = overlay.replica_targets(peer, depth)
            replica_rows.extend(index_of[t.peer_id] for t in targets)
            replica_ptr[i + 1] = len(replica_rows)
    replica_idx = np.asarray(replica_rows, dtype=np.int64)

    return MirrorArena(kind=kind, dims=dims, peer_ids=peer_ids,
                       store_ptr=store_ptr, tuples=tuples,
                       link_ptr=link_ptr, link_target=link_target,
                       link_payload=payload, replica_ptr=replica_ptr,
                       replica_idx=replica_idx, alive=alive)


def _encode_regions(flat: Sequence[Any], dims: int
                    ) -> tuple[str, dict[str, np.ndarray]]:
    """Pack a homogeneous link-region list into flat payload arrays."""
    total = len(flat)
    if not total:
        return "rect", {"lo": np.empty((0, dims)), "hi": np.empty((0, dims))}
    sample = flat[0].region
    if isinstance(sample, RectRegion):
        lo = np.empty((total, dims))
        hi = np.empty((total, dims))
        for e, link in enumerate(flat):
            region = link.region
            if not isinstance(region, RectRegion):
                raise TypeError(f"mixed region families: {region!r}")
            lo[e] = region.rect.lo
            hi[e] = region.rect.hi
        return "rect", {"lo": lo, "hi": hi}
    if isinstance(sample, ArcRegion):
        pieces = np.full((total, 2, 2), np.nan)
        for e, link in enumerate(flat):
            region = link.region
            if not isinstance(region, ArcRegion):
                raise TypeError(f"mixed region families: {region!r}")
            if len(region.pieces) > 2:
                raise ValueError("finger arcs normalize to <= 2 pieces")
            for k, piece in enumerate(region.pieces):
                pieces[e, k] = piece
        return "arc", {"pieces": pieces}
    if isinstance(sample, FrustumRegion):
        axis = np.empty(total, dtype=np.int64)
        base_lo = np.empty((total, dims))
        base_hi = np.empty((total, dims))
        top_lo = np.empty((total, dims))
        top_hi = np.empty((total, dims))
        for e, link in enumerate(flat):
            region = link.region
            if not isinstance(region, FrustumRegion):
                raise TypeError(f"mixed region families: {region!r}")
            frustum = region.frustum
            axis[e] = frustum.axis
            base_lo[e] = frustum.base.lo
            base_hi[e] = frustum.base.hi
            top_lo[e] = frustum.top.lo
            top_hi[e] = frustum.top.hi
        return "frustum", {"axis": axis, "base_lo": base_lo,
                           "base_hi": base_hi, "top_lo": top_lo,
                           "top_hi": top_hi}
    raise TypeError(f"cannot mirror region family {type(sample).__name__}")


def midas_arena(n: int, *, dims: int = 2, seed: int = 0,
                data: np.ndarray | None = None,
                precompute_links: bool = False) -> MidasArena:
    """Build a balanced ``n``-peer MIDAS network as a :class:`MidasArena`.

    The network is the balanced dyadic k-d tree over ``[0, 1]^dims``:
    with ``n = 2**D + m`` the first ``m`` level-``D`` nodes (path order)
    split once more, so all zones sit at depth ``D`` or ``D + 1`` and the
    peer index *is* the left-to-right leaf order.  ``data`` rows are
    assigned to zones by a vectorized midpoint descent (``D`` passes over
    the point set, plus one for the deep leaves) and laid out as one CSR
    row block.  With ``precompute_links`` every link-target descent —
    the seeded-\\ ``mix`` random walk of the MIDAS ``"random"`` link
    policy — is resolved for *all* ``n * depth`` links at once,
    level-synchronously, via :func:`~repro.common.hashing.mix_array`.
    """
    if n < 1:
        raise ValueError(f"need at least one peer, got {n}")
    if dims < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    base_depth = n.bit_length() - 1
    extra = n - (1 << base_depth)

    if data is not None:
        data = np.ascontiguousarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != dims:
            raise ValueError(f"expected (m, {dims}) data, got {data.shape}")
        leaf = _assign_leaves(data, dims, base_depth, extra)
        order = np.argsort(leaf, kind="stable")
        tuples = data[order]
        counts = np.bincount(leaf, minlength=n)
        store_ptr = np.concatenate(([0], np.cumsum(counts)))
    else:
        tuples = np.empty((0, dims))
        store_ptr = np.zeros(n + 1, dtype=np.int64)

    link_ptr = link_target = None
    if precompute_links and n > 1:
        link_ptr, link_target = _resolve_links(base_depth, extra, seed)

    return MidasArena(dims=dims, store_ptr=store_ptr, tuples=tuples,
                      base_depth=base_depth, extra=extra, seed=seed,
                      link_ptr=link_ptr, link_target=link_target)


def _assign_leaves(data: np.ndarray, dims: int, base_depth: int,
                   extra: int) -> np.ndarray:
    """Vectorized tree descent: each row's owning leaf (= peer) index.

    Maintains the per-point cell bounds so the midpoint sequence is
    bit-identical to the scalar :meth:`MidasArena.locate_index` walk
    (and to the link-region rectangles decoded from path bits).
    """
    count = len(data)
    value = np.zeros(count, dtype=np.int64)
    lo = np.zeros((count, dims))
    hi = np.ones((count, dims))
    for level in range(base_depth):
        j = level % dims
        mid = (lo[:, j] + hi[:, j]) / 2.0
        bit = data[:, j] >= mid
        value = (value << 1) | bit
        lo[bit, j] = mid[bit]
        hi[~bit, j] = mid[~bit]
    leaf = value + extra
    deep = value < extra
    if extra and deep.any():
        j = base_depth % dims
        mid = (lo[deep, j] + hi[deep, j]) / 2.0
        bit = data[deep, j] >= mid
        leaf[deep] = (value[deep] << 1) | bit
    return leaf


def _resolve_links(base_depth: int, extra: int, seed: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All link-target descents of the balanced tree, level-synchronous.

    Every link starts at a sibling-subtree prefix; each pass extends all
    still-internal prefixes by one seeded branch bit (one
    :func:`mix_array` sweep per level — at most ``base_depth + 1``
    passes total), then maps finished leaf paths to peer indexes.
    """
    n = (1 << base_depth) + extra
    two_extra = 2 * extra
    index = np.arange(n, dtype=np.int64)
    depths = np.where(index < two_extra, base_depth + 1, base_depth)
    paths = np.where(index < two_extra, index, index - extra)

    degrees = depths
    link_ptr = np.concatenate(([0], np.cumsum(degrees)))
    owner = np.repeat(index, degrees)
    level = np.arange(len(owner), dtype=np.int64) - link_ptr[owner]
    # Sibling prefix at this level: the (level+1)-bit prefix, last bit
    # flipped.
    value = (paths[owner] >> (depths[owner] - 1 - level)) ^ 1
    length = level + 1

    def is_leaf(value: np.ndarray, length: np.ndarray) -> np.ndarray:
        return (length > base_depth) \
            | ((length == base_depth) & (value >= extra))

    active = np.flatnonzero(~is_leaf(value, length))
    while len(active):
        key = (np.int64(1) << length[active]) | value[active]
        bit = (mix_array(seed, owner[active], key)
               & np.uint64(1)).astype(np.int64)
        value[active] = (value[active] << 1) | bit
        length[active] += 1
        active = active[~is_leaf(value[active], length[active])]
    link_target = np.where(length > base_depth, value, value + extra)
    return link_ptr, link_target
