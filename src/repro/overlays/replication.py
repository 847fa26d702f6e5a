"""Replica placement and promotion: the data half of overlay self-healing.

A crash-stop failure loses a peer's zone *data* unless someone else holds
a copy.  Fault-tolerant structured overlays therefore pair their repair
protocols with neighbor replication — Chord's successor lists, CAN's
zone-takeover neighbors, and sibling "buddies" in tree-shaped structures
(cf. the Rainbow Skip Graph's redundant towers).  This module supplies
that layer for every RIPPLE overlay:

* :class:`ReplicaDirectory` — installs ``copies`` mirrors of each peer's
  :class:`~repro.common.store.LocalStore` onto *structurally chosen*
  neighbors (each overlay's ``replica_targets`` encodes its discipline:
  MIDAS sibling-subtree buddies, Chord successor lists, CAN face
  neighbors), keeps them consistent through the overlay epoch and store
  version counters, and answers "who can stand in for peer *w*?".
* :class:`PromotedPeer` — a live replica holder impersonating a dead
  owner.  It satisfies :class:`~repro.core.framework.PeerLike`: its
  ``peer_id`` is the *owner's* (so the query's processed-set dedup keeps
  exactly-once answer semantics), its ``store`` is the mirrored data, and
  its ``links()`` are the owner's link table (replicated alongside the
  data, as successor lists replicate neighbor sets) — so the promoted
  holder *owns the dead peer's region*: it serves the zone's tuples and
  coordinates the region's sub-queries exactly as the owner would have.
  Liveness, however, is judged against the *holder* through
  :func:`~repro.core.framework.physical_id`.

The supervised engine (:mod:`repro.net.eventsim`) consumes promotions in
two ways: proactively, when the failure detector has already declared a
link target dead (the forward is redirected — the patched-link fast
path), and reactively, when a stranded region has exhausted retries and
re-routing (the supervisor re-issues it against a live holder instead of
abandoning it).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Hashable, Iterable, Protocol,
                    Sequence, runtime_checkable)

from ..common.store import LocalStore, Replica

if TYPE_CHECKING:  # pragma: no cover - type-only
    from ..core.framework import Link, PeerLike

__all__ = ["PromotedPeer", "ReplicaDirectory", "ReplicatedOverlay",
           "ReplicatedPeer"]


@runtime_checkable
class ReplicatedPeer(Protocol):
    """A peer that can hold mirrors: ``PeerLike`` plus a replica table.

    Re-declares the :class:`~repro.core.framework.PeerLike` surface
    (structural typing keeps the two interchangeable) and adds the
    per-holder ``replicas`` map the directory installs into.
    """

    peer_id: Hashable
    store: LocalStore
    replicas: dict[Hashable, Replica]

    def links(self) -> Sequence["Link"]:  # pragma: no cover - protocol
        ...


class ReplicatedOverlay(Protocol):
    """What the directory needs from an overlay.

    Enumerable peers that can hold replicas, the overlay-specific
    structural placement rule (``replica_targets``), and the ``epoch``
    counter every overlay exposes (moved by each join and departure; see
    :class:`~repro.overlays.substrate.Substrate`).
    """

    epoch: int

    def peers(self) -> Sequence[ReplicatedPeer]:  # pragma: no cover
        ...

    def replica_targets(  # pragma: no cover - protocol
            self, peer: ReplicatedPeer,
            count: int) -> Sequence[ReplicatedPeer]:
        ...


class PromotedPeer:
    """A live replica holder standing in for a dead owner (PeerLike).

    Impersonation split: the *logical* identity (``peer_id``, the store,
    the link table) is the owner's, so queries dedup, answer, and route
    exactly as if the owner served them; the *physical* identity
    (``physical_id``) is the holder's, so crash windows, incarnations,
    and delivery checks apply to the machine actually doing the work.
    """

    __slots__ = ("peer_id", "physical_id", "store", "_owner")

    def __init__(self, owner: "PeerLike", holder: "PeerLike",
                 replica: Replica) -> None:
        self.peer_id = owner.peer_id
        self.physical_id = holder.peer_id
        self.store = replica.store
        self._owner = owner

    def links(self) -> Sequence["Link"]:
        """The dead owner's link table (replicated with the data)."""
        return self._owner.links()

    def __repr__(self) -> str:
        return (f"PromotedPeer(owner={self.peer_id!r}, "
                f"holder={self.physical_id!r})")


class ReplicaDirectory:
    """Places, maintains, and promotes replicas over one overlay.

    ``copies`` is the replication degree R: each peer's tuples are
    mirrored onto its first R ``replica_targets`` (an overlay-specific
    structural choice).  ``refresh()`` is cheap and idempotent — it
    reinstalls placement only when the overlay's epoch moved (churn
    changed the structure) and re-snapshots only the replicas whose
    owner-store version moved — so callers run it before every query.

    The directory doubles as the repair protocol's promotion table: the
    failure detector calls :meth:`repair` when it declares a peer dead,
    pinning the takeover holder so that subsequent forwards to the dead
    peer are patched to the same replacement (and :meth:`demote` when the
    peer comes back, un-patching the links).
    """

    def __init__(self, overlay: ReplicatedOverlay, copies: int = 1) -> None:
        if copies < 0:
            raise ValueError(f"replication degree must be >= 0, got {copies}")
        self.overlay = overlay
        self.copies = copies
        self._epoch: int | None = None
        self._owners: dict[Hashable, ReplicatedPeer] = {}
        self._holders: dict[Hashable, list[ReplicatedPeer]] = {}
        self._promotions: dict[Hashable, Hashable] = {}
        self._promotion_listeners: list[Callable[[Hashable], None]] = []
        self.refresh()

    def subscribe_promotions(
            self, listener: Callable[[Hashable], None]
    ) -> Callable[[Hashable], None]:
        """Register ``listener(owner_id)`` to fire whenever :meth:`repair`
        declares an owner dead.

        The query-result cache subscribes here: once a replica holder may
        stand in for the owner, remembered answers that touched the owner
        are no longer evidence about the peer now serving its zone.
        """
        self._promotion_listeners.append(listener)
        return listener

    # -- maintenance -------------------------------------------------------

    def refresh(self) -> None:
        """Bring placement and mirrors up to date; clears promotions."""
        epoch = self.overlay.epoch
        if epoch != self._epoch:
            self._install()
            self._epoch = epoch
        else:
            for owner_id, holders in self._holders.items():
                owner = self._owners[owner_id]
                for holder in holders:
                    replica = holder.replicas.get(owner_id)
                    if replica is not None:
                        replica.refresh(owner.store)
        self._promotions.clear()

    def _install(self) -> None:
        peers = list(self.overlay.peers())
        for peer in peers:
            peer.replicas.clear()
        self._owners = {peer.peer_id: peer for peer in peers}
        self._holders = {}
        for peer in peers:
            targets = list(self.overlay.replica_targets(peer, self.copies))
            for target in targets:
                target.replicas[peer.peer_id] = Replica(peer.peer_id,
                                                        peer.store)
            self._holders[peer.peer_id] = targets

    # -- lookup ------------------------------------------------------------

    def owners(self) -> Iterable[ReplicatedPeer]:
        return self._owners.values()

    def holders(self, owner_id: Hashable) -> list[ReplicatedPeer]:
        """The replica holders of ``owner_id`` in placement order."""
        return list(self._holders.get(owner_id, ()))

    # -- repair protocol ---------------------------------------------------

    def repair(self, owner_id: Hashable,
               alive: Callable[[Hashable], bool]) -> ReplicatedPeer | None:
        """Declare ``owner_id`` dead: pin the first live holder as its
        takeover target (the patched-link destination)."""
        for listener in self._promotion_listeners:
            listener(owner_id)
        for holder in self._holders.get(owner_id, ()):
            if alive(holder.peer_id):
                self._promotions[owner_id] = holder.peer_id
                return holder
        self._promotions.pop(owner_id, None)
        return None

    def demote(self, owner_id: Hashable) -> None:
        """The owner recovered: un-patch links, traffic returns to it."""
        self._promotions.pop(owner_id, None)

    def promote(self, owner_id: Hashable,
                alive: Callable[[Hashable], bool],
                exclude: frozenset[Hashable] = frozenset(),
                ) -> PromotedPeer | None:
        """A live stand-in for ``owner_id``, or None when none exists.

        Prefers the holder pinned by :meth:`repair` (so every patched
        forward converges on one takeover peer), then falls through the
        placement order, skipping dead and ``exclude``-ed holders.
        """
        owner = self._owners.get(owner_id)
        if owner is None:
            return None
        ordered = self._holders.get(owner_id, ())
        pinned = self._promotions.get(owner_id)
        if pinned is not None:
            ordered = sorted(ordered, key=lambda h: h.peer_id != pinned)
        for holder in ordered:
            if holder.peer_id in exclude or not alive(holder.peer_id):
                continue
            replica = holder.replicas.get(owner_id)
            if replica is not None:
                return PromotedPeer(owner, holder, replica)
        return None

    def __repr__(self) -> str:
        return (f"ReplicaDirectory(copies={self.copies}, "
                f"owners={len(self._owners)})")
