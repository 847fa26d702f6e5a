"""Load-adaptive selection of the ripple parameter ``r``.

The ripple parameter trades latency for traffic (Lemmas 1-3): ``r = 0``
is the parallel, latency-optimal extreme, larger ``r`` serializes
propagation and cuts messages.  Hand-picking one value bakes in a load
assumption — the ADiT line of work (Dabringer & Eder, PAPERS.md) instead
adapts the per-query degree of parallelism to observed load: messages
are what *cause* queueing, so under pressure the message-optimal end of
the spectrum wins, while an idle engine should always take the
latency-optimal end.

The controller reads one deterministic signal, the engine's **observed
queueing pressure**: instantaneous capacity/queue occupancy
(:class:`EngineLoad`) blended with an EWMA of the queue-delay fraction
of settled queries, so sustained congestion keeps steering even between
bursts.  :meth:`AdaptiveFanout.choose` walks a threshold ladder over the
candidate set — at low pressure the latency-optimal ``r``, under
saturation the message-optimal one.  Everything is pure arithmetic over
recorded quantities: two identical runs make identical choices
(``tests/net/test_adaptive.py`` pins determinism, and the answers
themselves are ``r``-invariant by the framework's correctness property,
so adaptation can never change what a query returns).

Wired into :class:`~repro.net.scheduler.QueryEngine` via its ``fanout``
parameter and into :func:`~repro.net.workload.run_workload` behind
``WorkloadSpec.adaptive_r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from .scheduler import QueryJob, QueryOutcome

__all__ = ["AdaptiveFanout", "EngineLoad"]

#: Pressure thresholds of the ladder: at or below ``LOW`` the smallest
#: ``r``, at or above ``HIGH`` the largest, the middle candidate between.
LOW = 0.25
HIGH = 0.75
#: EWMA smoothing factor of the observed queue-delay fraction.
SMOOTHING = 0.3


@dataclass(frozen=True)
class EngineLoad:
    """Instantaneous occupancy snapshot of a :class:`QueryEngine`."""

    running: int
    capacity: int
    waiting: int
    queue_limit: int

    @property
    def pressure(self) -> float:
        """Occupancy blend in ``[0, 1]``: how close to shedding we are.

        Capacity occupancy alone saturates early (the engine runs full
        long before queueing hurts), so the admission-queue fill —
        the direct precursor of shedding — carries equal weight.
        """
        busy = self.running / self.capacity
        queued = self.waiting / self.queue_limit if self.queue_limit else 0.0
        return min(1.0, 0.5 * busy + 0.5 * queued)


@dataclass
class AdaptiveFanout:
    """The per-query ``r`` controller a :class:`QueryEngine` consults.

    A threshold ladder over the candidate set (idle -> smallest ``r``,
    saturated -> largest, the middle candidate in between).  ``observe``
    folds each settled query's queue-delay fraction into the pressure
    EWMA.
    """

    rs: tuple[int, ...] = (0, 1, 2)
    #: Chosen-``r`` tallies, for reports and the benchmark gate.
    decisions: dict[int, int] = field(init=False)
    _pressure: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.rs = tuple(sorted(set(int(r) for r in self.rs)))
        if not self.rs:
            raise ValueError("need at least one candidate r")
        self.decisions = dict.fromkeys(self.rs, 0)

    @property
    def pressure(self) -> float:
        """The controller's current queue-delay EWMA."""
        return self._pressure

    def choose(self, job: "QueryJob", load: EngineLoad) -> int:
        """The ``r`` this query should run at, given current load."""
        pressure = max(load.pressure, self._pressure)
        if pressure <= LOW:
            choice = self.rs[0]
        elif pressure >= HIGH:
            choice = self.rs[-1]
        else:
            choice = self.rs[len(self.rs) // 2]
        self.decisions[choice] = self.decisions.get(choice, 0) + 1
        return choice

    def observe(self, outcome: "QueryOutcome") -> None:
        """Fold a settled query's congestion evidence into the EWMA."""
        turnaround = max(1, outcome.turnaround)
        fraction = min(1.0, outcome.stats.queue_delay / turnaround)
        self._pressure += SMOOTHING * (fraction - self._pressure)
