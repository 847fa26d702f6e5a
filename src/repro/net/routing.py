"""Overlay-agnostic greedy DHT routing.

Every RIPPLE-compatible overlay gives each peer link regions that
partition the domain outside the peer's own zone, so a lookup needs no
overlay-specific code: forward to the (unique) link whose region contains
the target key, until no link region does — the current peer is then
responsible.  Over MIDAS this is the standard O(log n) lookup; over Chord
it is finger routing; over CAN it follows the frustums greedily.

:func:`route_around` is the failure-aware complement used by the
resilient engine (:mod:`repro.net.faults`): when greedy routing would
have to cross a dead peer, it searches the live part of the link graph
for an alternate peer able to coordinate the stranded region.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from ..core.framework import PeerLike
    from ..core.regions import Region

__all__ = ["greedy_route", "route_around", "RoutingError"]

_MAX_HOPS = 100_000


class RoutingError(RuntimeError):
    """Routing did not converge (broken region partition or a cycle)."""


def greedy_route(start: PeerLike, point: Sequence[float], *,
                 max_hops: int = _MAX_HOPS) -> tuple[PeerLike, list[PeerLike]]:
    """The peer responsible for ``point`` plus the path taken to reach it.

    Returns ``(responsible_peer, path)`` where ``path`` starts at ``start``
    and ends at the responsible peer; the hop count is ``len(path) - 1``.
    """
    peer = start
    path = [start]
    seen = {start.peer_id}
    for _ in range(max_hops):
        next_peer = _next_hop(peer, point)
        if next_peer is None:
            return peer, path
        if next_peer.peer_id in seen:
            raise RoutingError(
                f"routing loop at peer {next_peer.peer_id!r} toward {point}")
        seen.add(next_peer.peer_id)
        path.append(next_peer)
        peer = next_peer
    raise RoutingError(f"no convergence after {max_hops} hops toward {point}")


def _next_hop(peer: PeerLike, point: Sequence[float]) -> PeerLike | None:
    """The target of ``peer``'s first link whose region contains
    ``point``, else None: read off path bits where the peer's arena can
    (``MidasArena.route_hop``), else asked of its table's regions
    (``LinkTable.locate``)."""
    from ..core.framework import LinkTable  # a package cycle at import

    route_hop = getattr(getattr(peer, "arena", None), "route_hop", None)
    if route_hop is not None:
        return route_hop(peer, point)
    links = peer.links()
    table = links if isinstance(links, LinkTable) else LinkTable(links)
    index = table.locate(point)
    return None if index is None else table.target(index)


def route_around(
    start: PeerLike,
    region: "Region",
    alive: Callable[[Hashable], bool],
    *,
    exclude: Iterable[Hashable] = (),
    max_peers: int = _MAX_HOPS,
) -> tuple["PeerLike | None", int]:
    """Find a live peer able to coordinate ``region``, avoiding dead links.

    Breadth-first search over the link graph, traversing only links whose
    targets satisfy ``alive``, for the nearest peer (other than ``start``
    and the ``exclude`` set) with at least one link region intersecting
    ``region`` — such a peer can re-issue the stranded sub-query and cover
    whatever part of the region is still reachable.  Returns the peer and
    its hop distance from ``start``, or ``(None, 0)`` when the live
    component holds no such coordinator.
    """
    excluded = set(exclude)
    seen = {start.peer_id}
    queue: deque[tuple[PeerLike, int]] = deque([(start, 0)])
    visited = 0
    while queue and visited < max_peers:
        peer, hops = queue.popleft()
        visited += 1
        if (hops > 0 and peer.peer_id not in excluded
                and any(link.region.intersect(region) is not None
                        for link in peer.links())):
            return peer, hops
        for link in peer.links():
            neighbor = link.peer
            if neighbor.peer_id in seen or not alive(neighbor.peer_id):
                continue
            seen.add(neighbor.peer_id)
            queue.append((neighbor, hops + 1))
    return None, 0
