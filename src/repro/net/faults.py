"""Deterministic fault injection for the event-driven RIPPLE engine.

The paper's cost model (Lemmas 1–3) assumes a flawless network: every
peer is alive, every forward arrives, every response returns.  Real DHT
deployments — the setting RIPPLE targets — face churn and message loss,
and rank-query structures must be evaluated under failure to be credible
(cf. the fault-tolerance literature on structured overlays, e.g. the
Rainbow Skip Graph).  This module supplies the failure side of that
evaluation:

* :class:`FaultPlan` — a seeded, fully deterministic schedule of peer
  crash/recovery windows, per-message drop decisions, and per-forward
  latency jitter.  The :class:`~repro.net.eventsim.EventSimulator`
  consults the plan on every delivery, so two runs with the same plan are
  bit-identical.
* :func:`resilient_ripple` — the fault-tolerant counterpart of
  :func:`~repro.net.eventsim.event_driven_ripple`.  Forwards are
  supervised with acknowledgement timeouts, bounded retries under
  exponential backoff, liveness watchdogs, and re-routing of stranded
  restriction regions through alternate live peers
  (:func:`~repro.net.routing.route_around`).  When every recovery avenue
  is exhausted the region is *abandoned* and its volume accounted, so the
  query always terminates with a partial answer and an explicit
  **completeness** bound (see :mod:`repro.net.context`).

Fault model (also documented in ``docs/ALGORITHMS.md``):

* **Crash-stop with amnesia** — a peer is down during scheduled windows;
  messages delivered to a down peer vanish.  A peer that recovers serves
  new requests but has lost all in-flight query state (its *incarnation*
  number changed).  A crashed peer that never shipped its local answer is
  un-marked from the processed set so a retry may re-process its data.
* **Lossy forwards and responses** — query forwards, acks, and state
  responses are each dropped independently with ``drop_prob``; answer
  uploads to the initiator ride a reliable channel (they already add no
  propagation delay in the engine's latency convention).
* **Jitter** — each forward takes ``1 + U{0..jitter}`` time units.

With a zero-fault plan (``FaultPlan.none()``) the supervised execution
reproduces the fault-free engines *exactly* — same answers, processed
sets, message counts, and latencies — which ``tests/net/test_faults.py``
cross-validates property-style against the recursive engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..common.hashing import mix, mix_array, mix_step
from ..core.framework import OverlayLike, PeerLike
from ..core.handler import QueryHandler
from ..core.regions import Region, region_volume
from ..obs.trace import TraceSink
from .context import QueryResult
from .scheduler import _run_one_job

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from ..overlays.replication import ReplicaDirectory

__all__ = ["FaultPlan", "region_volume", "resilient_ripple"]

_SCALE = float(1 << 64)
_DROP_SALT = 0xD20B
_JITTER_SALT = 0x1A77
_CHURN_SALT = 0xC4A5


class FaultPlan:
    """A deterministic, seeded schedule of failures for one simulation.

    ``crashes`` maps a peer id to its down-time windows ``[down, up)``
    (``up`` may be ``math.inf`` for a peer that never recovers).  Windows
    are normalized to a sorted tuple.  Message-level decisions (drops,
    jitter) are derived by hashing the plan seed with a per-message
    sequence number, so they depend only on the deterministic event order.
    The plan says what fails; how the protocol reacts is fixed by the
    timing constants of :mod:`repro.net.eventsim` (acks, retries,
    watchdogs, re-routes) and :mod:`repro.net.detector` (heartbeats).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        drop_prob: float = 0.0,
        jitter: int = 0,
        crashes: Mapping[Hashable, Sequence[tuple[float, float]]] | None = None,
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.seed = seed
        # ``mix(seed, salt, id) == mix_step(mix(seed, salt), id)``: the
        # per-message draws fold the fixed prefix once per plan.
        self._drop_head = mix(seed, _DROP_SALT)
        self._jitter_head = mix(seed, _JITTER_SALT)
        self.drop_prob = drop_prob
        self.jitter = jitter
        self.crashes: dict[Hashable, tuple[tuple[float, float], ...]] = {}
        for peer_id, windows in (crashes or {}).items():
            cleaned = tuple(sorted((float(d), float(u)) for d, u in windows))
            for down, up in cleaned:
                if up <= down:
                    raise ValueError(
                        f"empty crash window [{down}, {up}) for {peer_id!r}")
            if cleaned:
                self.crashes[peer_id] = cleaned
        #: Peers exempt from every fault (e.g. the query initiator: a
        #: client does not crash-stop its own query).
        self.protected: set[Hashable] = set()

    # -- construction ------------------------------------------------------

    @classmethod
    def none(cls, *, seed: int = 0) -> "FaultPlan":
        """A plan that injects nothing; the supervised engine's identity."""
        return cls(seed=seed)

    @classmethod
    def churn(
        cls,
        peers: Iterable[Hashable] | OverlayLike,
        *,
        crash_fraction: float,
        seed: int = 0,
        horizon: int = 64,
        recovery: int | None = None,
        drop_prob: float = 0.0,
        jitter: int = 0,
    ) -> "FaultPlan":
        """Schedule each peer to crash with probability ``crash_fraction``.

        ``peers`` is an overlay (anything with ``.peers()``) or an
        iterable of peer ids.  Crash times are uniform over ``[0,
        horizon)``; peers stay down forever unless ``recovery`` bounds the
        outage length (down for ``1 + U{0..recovery-1}`` units).
        """
        if not 0.0 <= crash_fraction <= 1.0:
            raise ValueError(
                f"crash_fraction must be within [0, 1], got {crash_fraction}")
        if isinstance(peers, OverlayLike):
            ids: list[Hashable] = [p.peer_id for p in peers.peers()]
        else:
            ids = list(peers)
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if recovery is not None and recovery <= 0:
            raise ValueError(f"recovery must be positive or None, got "
                             f"{recovery}")
        rng = np.random.default_rng(mix(seed, _CHURN_SALT))
        crashes: dict[Hashable, list[tuple[float, float]]] = {}
        for peer_id in ids:
            if rng.random() >= crash_fraction:
                continue
            down = float(rng.integers(0, horizon))
            up = math.inf if recovery is None \
                else down + 1.0 + float(rng.integers(0, recovery))
            crashes[peer_id] = [(down, up)]
        return cls(seed=seed, drop_prob=drop_prob, jitter=jitter,
                   crashes=crashes)

    # -- liveness ----------------------------------------------------------

    def protect(self, peer_id: Hashable) -> None:
        self.protected.add(peer_id)

    def alive(self, peer_id: Hashable, time: float) -> bool:
        if peer_id in self.protected:
            return True
        windows = self.crashes.get(peer_id)
        if not windows:
            return True
        return not any(down <= time < up for down, up in windows)

    def incarnation(self, peer_id: Hashable, time: float) -> int:
        """Number of crashes the peer has suffered up to ``time``.

        An invocation records the incarnation at its start; any later
        mismatch means the peer lost its in-flight state in between.
        """
        if peer_id in self.protected:
            return 0
        windows = self.crashes.get(peer_id)
        if not windows:
            return 0
        return sum(1 for down, _ in windows if down <= time)

    # -- per-message draws -------------------------------------------------

    def drops(self, message_id: int) -> bool:
        """Deterministic verdict: is this message delivery lost?"""
        if self.drop_prob <= 0.0:
            return False
        return mix_step(self._drop_head, message_id) / _SCALE < self.drop_prob

    def drops_batch(self, first: int, count: int) -> np.ndarray:
        """``drops`` of the ``count`` message ids from ``first``, as bools."""
        if self.drop_prob <= 0.0:
            return np.zeros(count, dtype=bool)
        ids = np.arange(first, first + count, dtype=np.uint64)
        return mix_array(ids, acc=self._drop_head) / _SCALE < self.drop_prob

    def forward_delay(self, message_id: int) -> int:
        """Propagation delay of a query forward: 1 hop plus jitter."""
        if self.jitter <= 0:
            return 1
        return 1 + mix_step(self._jitter_head, message_id) % (self.jitter + 1)

    @property
    def can_fail(self) -> bool:
        return bool(self.crashes) or self.drop_prob > 0.0

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, drop_prob={self.drop_prob}, "
                f"jitter={self.jitter}, crashed_peers={len(self.crashes)})")


def resilient_ripple(
    initiator: PeerLike,
    handler: QueryHandler,
    r: int = 0,
    *,
    restriction: Region,
    faults: FaultPlan | None = None,
    replicas: "ReplicaDirectory | None" = None,
    max_events: int | None = None,
    sink: "TraceSink | None" = None,
) -> QueryResult:
    """Run Algorithm 3 through the fault-supervised event-driven engine.

    Mirrors :func:`~repro.net.eventsim.event_driven_ripple` but executes
    under ``faults`` (default: a zero-fault plan, which reproduces the
    fault-free engines exactly).  The initiator is automatically
    protected from crashing — a client does not crash-stop its own query.
    Degraded executions terminate with partial answers; inspect
    ``result.stats.completeness`` and the fault counters.

    ``replicas`` (a :class:`~repro.overlays.replication.ReplicaDirectory`)
    enables self-healing: the directory is refreshed against the overlay,
    a heartbeat :class:`~repro.net.detector.FailureDetector` runs for the
    duration of the query (patching links of detector-confirmed-dead
    peers), and restriction regions stranded on crashed peers are
    re-issued against promoted replica holders instead of being abandoned
    — so whenever every crashed peer has at least one live replica, the
    query returns the *exact* fault-free answer with completeness 1.0
    (counted in ``stats.regions_recovered`` / ``stats.replica_reads``).
    With a zero-fault plan the detector never starts and the execution
    stays bit-identical to the fault-free engines, replicas or not.

    Runs the context in non-strict mode: fault recovery implies
    at-least-once delivery, so duplicate visits are deduplicated (their
    local answers are never double-counted) rather than treated as a
    simulator error.

    Runs as the one job of a fresh
    :class:`~repro.net.scheduler.QueryEngine`, so the query settles when
    its root answer is complete: latency is the critical path of that
    answer, and work still queued for subtrees orphaned by crashed peers
    is dropped.  ``max_events`` is the query's event budget; blowing it
    raises :class:`~repro.net.eventsim.SimulationBudgetExceeded` with the
    partial stats.
    """
    return _run_one_job(initiator, handler, r, restriction=restriction,
                        faults=faults if faults is not None
                        else FaultPlan.none(),
                        replicas=replicas, max_events=max_events, sink=sink)
