"""A heartbeat failure detector driving overlay self-healing.

Structured overlays repair themselves *proactively*: peers probe their
neighbors on a schedule, declare unresponsive ones dead, and patch links
before queries stumble into the hole (Chord's stabilization, CAN's
zone-takeover timers).  This module supplies that component for the
fault-injected simulations: :class:`FailureDetector` runs periodic
heartbeat sweeps inside the :class:`~repro.net.eventsim.EventSimulator`,
consults the :class:`~repro.net.faults.FaultPlan` for ground truth (and
for probe loss, so a lossy network can produce false suspicions), and
walks each monitored peer through the classic ALIVE → SUSPECT → DEAD
state machine.

The detector is *eventually perfect* in the usual sense: a probe that
finds the peer up (and no probe loss) resets it to ALIVE immediately, so
suspicions are always eventually corrected.  Incarnation awareness makes
recovery visible: a peer that crashed and came back is reported through
``on_alive`` even if the detector never saw it down, because its
incarnation number moved.

Determinism: probe-loss draws consume simulator message ids, which would
perturb the drop/jitter sequence of the query traffic sharing the
simulator.  With ``drop_prob == 0`` the plan answers every draw False
without consuming entropy, and the detector skips the draw entirely — so
runs that differ only in whether a detector is attached stay bit-identical
whenever messages are reliable.  On a lossy network a sweep draws one id
per probed live peer, in peer order.  It reserves them as one block and
evaluates them in one array pass before any transition runs, which equals
probing peer by peer under one precondition: the ``on_dead`` /
``on_alive`` callbacks draw no message ids and leave the plan alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from .eventsim import EventSimulator
    from .faults import FaultPlan

__all__ = ["ALIVE", "SUSPECT", "DEAD", "FailureDetector"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


class FailureDetector:
    """Periodic heartbeat sweeps over a set of monitored peers.

    Every ``period`` time units the detector probes each monitored peer.
    A failed probe (peer down, or probe lost on a lossy network) bumps the
    peer's miss counter: ``suspect_after`` consecutive misses mark it
    SUSPECT, ``dead_after`` mark it DEAD and fire ``on_dead`` (the repair
    hook — e.g. :meth:`~repro.overlays.replication.ReplicaDirectory.repair`).
    A successful probe resets the peer to ALIVE and fires ``on_alive`` if
    it was previously declared dead or returned with a new incarnation
    (the un-repair hook).

    ``plan.protected`` peers are never probed (they cannot fail).  The
    detector reschedules itself until :meth:`stop` is called, so the
    owning query must stop it on completion or the event queue never
    drains.
    """

    __slots__ = ("sim", "plan", "peer_ids", "period", "suspect_after",
                 "dead_after", "on_dead", "on_alive", "probes",
                 "_misses", "_status", "_incarnations", "_stopped",
                 "_position", "_crashy", "_unsettled")

    def __init__(
        self,
        sim: "EventSimulator",
        plan: "FaultPlan",
        peer_ids: Iterable[Hashable],
        *,
        period: int | None = None,
        suspect_after: int | None = None,
        dead_after: int | None = None,
        on_dead: Callable[[Hashable], None] | None = None,
        on_alive: Callable[[Hashable], None] | None = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.peer_ids = [pid for pid in peer_ids if pid not in plan.protected]
        self.period = plan.heartbeat_period if period is None else period
        self.suspect_after = plan.suspect_after if suspect_after is None \
            else suspect_after
        self.dead_after = plan.dead_after if dead_after is None else dead_after
        if self.period <= 0:
            raise ValueError("heartbeat period must be positive")
        if not 0 < self.suspect_after <= self.dead_after:
            raise ValueError("need 0 < suspect_after <= dead_after")
        self.on_dead = on_dead
        self.on_alive = on_alive
        #: Total heartbeat probes issued (observability).
        self.probes = 0
        self._misses: dict[Hashable, int] = {pid: 0 for pid in self.peer_ids}
        self._status: dict[Hashable, str] = {pid: ALIVE
                                             for pid in self.peer_ids}
        self._incarnations: dict[Hashable, int] = {
            pid: 0 for pid in self.peer_ids}
        self._stopped = True
        self._position = {pid: i for i, pid in enumerate(self.peer_ids)}
        #: Monitored peers with crash windows: only they can be down or
        #: move their incarnation.
        self._crashy = [pid for pid in self.peer_ids if pid in plan.crashes]
        #: Peers carrying misses or a non-ALIVE status from earlier sweeps.
        self._unsettled: set[Hashable] = set()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Schedule the first sweep one period from now."""
        if not self._stopped:
            return
        self._stopped = False
        self.sim.schedule(self.period, self._sweep)

    def stop(self) -> None:
        """Cease probing; the pending sweep becomes a no-op."""
        self._stopped = True

    # -- probing -----------------------------------------------------------

    def _sweep(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        plan = self.plan
        self.probes += len(self.peer_ids)
        down = {pid for pid in self._crashy if not plan.alive(pid, now)}
        lost: set[Hashable] = set()
        if plan.drop_prob > 0.0:
            # One draw per probed live peer, in peer order.  A reliable
            # network draws nothing: consuming message ids would shift the
            # fault draws of the query traffic (see the module docstring).
            probed = [pid for pid in self.peer_ids if pid not in down]
            first = self.sim.new_message_ids(len(probed))
            drops = plan.drops_batch(first, len(probed))
            lost = {probed[i] for i in np.flatnonzero(drops).tolist()}
        # Everyone else is up, ALIVE, without misses and in incarnation 0:
        # a fixed point of the transition below.
        touched = self._unsettled.union(self._crashy, lost)
        for pid in sorted(touched, key=self._position.__getitem__):
            if pid not in down and pid not in lost:
                incarnation = plan.incarnation(pid, now)
                was = self._status[pid]
                reborn = incarnation != self._incarnations[pid]
                self._misses[pid] = 0
                self._status[pid] = ALIVE
                self._incarnations[pid] = incarnation
                self._unsettled.discard(pid)
                if (was == DEAD or (reborn and was != ALIVE)) \
                        and self.on_alive is not None:
                    self.on_alive(pid)
            else:
                misses = self._misses[pid] + 1
                self._misses[pid] = misses
                self._unsettled.add(pid)
                if misses >= self.dead_after:
                    if self._status[pid] != DEAD:
                        self._status[pid] = DEAD
                        if self.on_dead is not None:
                            self.on_dead(pid)
                elif misses >= self.suspect_after:
                    if self._status[pid] == ALIVE:
                        self._status[pid] = SUSPECT
        self.sim.schedule(self.period, self._sweep)

    # -- queries -----------------------------------------------------------

    def status(self, peer_id: Hashable) -> str:
        """ALIVE / SUSPECT / DEAD; unmonitored peers read as ALIVE."""
        return self._status.get(peer_id, ALIVE)

    def is_dead(self, peer_id: Hashable) -> bool:
        return self._status.get(peer_id) == DEAD

    def __repr__(self) -> str:
        dead = sum(1 for s in self._status.values() if s == DEAD)
        return (f"FailureDetector(monitored={len(self.peer_ids)}, "
                f"period={self.period}, dead={dead}, probes={self.probes})")
