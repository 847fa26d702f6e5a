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
  :class:`~repro.overlays.arena.MidasArena`, sized by peer count: a
  row's zone is read off the interleaved bits of its quantised
  coordinates, and link targets are either derived on demand
  (``precompute_links=False``, O(n) memory) or resolved for all links,
  one lockstep :func:`~repro.common.hashing.mix_array` descent per link
  level (``precompute_links=True``, for full-traversal workloads).  One
  million peers build in seconds; no per-peer Python objects exist until
  a query actually touches a peer.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..common.hashing import mix_array
from ..core.regions import ArcRegion, FrustumRegion, RectRegion
from .arena import MidasArena, MirrorArena

__all__ = ["from_overlay", "midas_arena"]


def from_overlay(overlay: Any) -> MirrorArena:
    """Snapshot an object overlay into an exact :class:`MirrorArena`.

    The mirror preserves everything observable through the peer
    protocol: peer ids and their ``peers()`` order, each peer's link
    *order* (it breaks ties under ``r > 0``'s stable priority sort),
    link regions decoded to ``==``-equal ``Region`` objects, and store
    rows.  Replica placement is not mirrored: arenas are read-only query
    snapshots.
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

    all_links = [p.links() for p in peers]
    degrees = np.fromiter((len(ls) for ls in all_links),
                          dtype=np.int64, count=len(peers))
    link_ptr = np.concatenate(([0], np.cumsum(degrees)))
    flat = [link for ls in all_links for link in ls]
    link_target = np.fromiter((index_of[link.peer.peer_id] for link in flat),
                              dtype=np.int64, count=len(flat))
    kind, payload = _encode_regions(flat, dims)
    return MirrorArena(kind=kind, dims=dims, peer_ids=peer_ids,
                       store_ptr=store_ptr, tuples=tuples,
                       link_ptr=link_ptr, link_target=link_target,
                       link_payload=payload)


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
    peer index *is* the left-to-right leaf order.  ``data`` rows (finite,
    else ``ValueError``) are assigned to zones in closed form — a point's
    zone is the bit interleaving of its coordinates quantised to the
    tree's per-axis split counts — and laid out as one CSR row block.
    With ``precompute_links`` every link-target descent — the seeded-\\
    ``mix`` random walk of the MIDAS ``"random"`` link policy — is
    resolved before the arena is returned: the ``n`` links of each level
    descend in lockstep, one :func:`~repro.common.hashing.mix_array`
    step per tree level.
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
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"expected finite coordinates, got "
                             f"{tuple(data[row].tolist())} at row {row}")
        leaf = _assign_leaves(data, dims, base_depth, extra)
        order = np.argsort(leaf.astype(_sort_dtype(n)), kind="stable")
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
    """Each row's owning leaf (= peer) index, in closed form.

    Axis ``j`` is halved by ``b_j`` of the tree's levels, so every cell
    on it is a dyadic interval whose midpoint is exact in binary
    floating point: the bit the ``k``-th of those levels reads (``x >=
    mid``) is bit ``k`` (MSB first) of ``q_j = floor(x_j * 2**b_j)``.
    Clipping ``q_j`` to ``[0, 2**b_j)`` gives the descent's answer for
    ``x >= 1``, ``x < 0`` and ``±inf``; the path is those bits
    interleaved in level order.  Bit-identical to the scalar
    :meth:`MidasArena.locate_index` walk (NaN rows are rejected by the
    caller: their descent reads every bit as 0, their cast is undefined).
    """
    levels = base_depth + (1 if extra else 0)
    q = []
    for j in range(dims):
        bits = (levels - j + dims - 1) // dims if j < levels else 0
        top = float((1 << bits) - 1)
        q.append((np.clip(np.floor(data[:, j] * float(1 << bits)), 0.0, top)
                  .astype(np.int64), bits))
    value = np.zeros(len(data), dtype=np.int64)
    for level in range(base_depth):
        cell, bits = q[level % dims]
        value <<= 1
        value |= (cell >> (bits - 1 - level // dims)) & 1
    if not extra:
        return value
    # The deep leaves read the last bit of the extra level's axis.
    deep = value < extra
    leaf = value + extra
    leaf[deep] = (value[deep] << 1) | (q[base_depth % dims][0][deep] & 1)
    return leaf


def _sort_dtype(n: int) -> type[np.unsignedinteger[Any]]:
    """The narrowest unsigned dtype holding ``n - 1``: at <= 16 bits a
    stable ``argsort`` is a radix sort."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def _resolve_links(base_depth: int, extra: int, seed: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All link-target descents of the balanced tree, grouped by level.

    The level-``l`` link of every peer deeper than ``l`` starts at the
    peer's ``(l+1)``-bit sibling prefix.  The ``n`` (or, at the extra
    level, ``2 * extra``) descents of one level share their length, so
    they step in lockstep to depth ``base_depth`` — one
    :func:`mix_array` step each, continued from the per-peer prefix
    ``mix(seed, index)`` — and take one more step where the path ends on
    a split node.  Temporaries are ``O(n)``; each level is scattered
    into ``link_target[link_ptr[owner] + l]``.
    """
    n = (1 << base_depth) + extra
    two_extra = 2 * extra
    index = np.arange(n, dtype=np.int64)
    deep = index < two_extra
    depths = np.where(deep, base_depth + 1, base_depth)
    paths = np.where(deep, index, index - extra)
    link_ptr = np.concatenate(([0], np.cumsum(depths)))
    link_target = np.empty(link_ptr[-1], dtype=np.int64)
    prefix = mix_array(seed, index)
    for level in range(base_depth + (1 if extra else 0)):
        # Peers deeper than ``level``: all of them, or the deep ones.
        owners = n if level < base_depth else two_extra
        shift = depths[:owners] - 1 - level
        value = (paths[:owners] >> shift) ^ 1
        acc = prefix[:owners]
        for length in range(level + 1, base_depth):
            value = (value << 1) | _branch(acc, length, value)
        target = value
        if level < base_depth:
            split = np.flatnonzero(value < extra)
            target = value + extra
            target[split] = (value[split] << 1) | _branch(
                acc[split], base_depth, value[split])
        link_target[link_ptr[:owners] + level] = target
    return link_ptr, link_target


def _branch(acc: np.ndarray, length: int, value: np.ndarray) -> np.ndarray:
    """The seeded branch bit at the internal nodes ``value`` of ``length``."""
    key = value | (1 << length)
    return (mix_array(key, acc=acc) & np.uint64(1)).astype(np.int64)
