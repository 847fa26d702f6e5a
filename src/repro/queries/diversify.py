"""k-diversification with RIPPLE (Section 6) — the first distributed one.

Given a query point ``q``, the k-diversification query finds a set ``O`` of
``k`` tuples minimizing Equation 1::

    f(O, q) = lam * max_{x in O} dr(x, q) - (1 - lam) * min_{y,z in O} dv(y, z)

(low max-distance-to-q = relevant, high min-pairwise-distance = diverse;
``lam`` trades them off).  The problem is NP-hard, so Section 6.3 solves
it greedily: build an initial set, then repeatedly swap one member for a
better outsider (Algorithms 22-23), where each "find the best outsider"
is a *single tuple diversification query* solved exactly by RIPPLE
(Algorithms 16-21).

The marginal cost of adding ``t`` to ``O`` (Equation 3) simplifies to::

    phi(t, q, O) = lam * max(0, dr(t,q) - maxrel)
                 + (1 - lam) * max(0, minpair - min_x dv(t, x))

whose four linear clauses are exactly the paper's four cases.  ``phi``
needs ``|O| >= 2``; while the initial set is still growing we score
candidates with the standard greedy marginal (maximal-marginal-relevance
style)::

    phi_grow(t, q, O) = lam * dr(t, q) - (1 - lam) * min_x dv(t, x)

both minimized, and both admitting a per-region lower bound ``phi^-``
from ``mindist``/``maxdist`` — which is all RIPPLE needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..common.geometry import (Point, Rect, as_point, maxdist, mindist,
                               minkowski_distance)
from ..common.scoring import _finite_vector
from ..common.store import LocalStore
from ..core.handler import QueryHandler
from ..core.regions import Region
from ..net.context import QueryResult, QueryStats

__all__ = [
    "DiversificationObjective",
    "SingleDiversificationHandler",
    "SingleQueryEngine",
    "RippleDiversifier",
    "greedy_diversify",
    "diversify_reference",
]

_EPS = 1e-12


class DiversificationObjective:
    """Equation 1's objective plus the marginal scores and region bounds.

    ``p`` selects the Minkowski metric for both relevance and diversity
    distances (the paper uses L1 for MIRFLICKR).
    """

    def __init__(self, query: Sequence[float], lam: float, p: float = 1):
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        if not p > 0:
            raise ValueError(f"p must be positive, got {p}")
        self.query: Point = _finite_vector("query", query)
        self.lam = float(lam)
        self.p = p
        self._q = np.asarray(self.query, dtype=float)

    # -- distances ----------------------------------------------------------

    def _dist_batch(self, array: np.ndarray, point: Sequence[float]
                    ) -> np.ndarray:
        diff = np.abs(np.asarray(array, dtype=float)
                      - np.asarray(point, dtype=float))
        if self.p == 1:
            return diff.sum(axis=1)
        if math.isinf(self.p):
            return diff.max(axis=1)
        return (diff ** self.p).sum(axis=1) ** (1.0 / self.p)

    def _set_features(self, members: Sequence[Point]
                      ) -> tuple[float, float]:
        """``(maxrel, minpair)`` of a member set (inf when undefined)."""
        if not members:
            return -math.inf, math.inf
        arr = np.asarray(members, dtype=float)
        maxrel = float(self._dist_batch(arr, self.query).max())
        if len(members) < 2:
            return maxrel, math.inf
        minpair = math.inf
        for i in range(len(members) - 1):
            dists = self._dist_batch(arr[i + 1:], arr[i])
            minpair = min(minpair, float(dists.min()))
        return maxrel, minpair

    # -- objective and marginals ---------------------------------------------

    def f(self, members: Sequence[Point]) -> float:
        """Equation 1 (minimized).  Needs ``|O| >= 2``."""
        if len(members) < 2:
            raise ValueError("f(O) needs at least two members")
        maxrel, minpair = self._set_features(members)
        return self.lam * maxrel - (1.0 - self.lam) * minpair

    def phi_batch(self, array: np.ndarray, members: Sequence[Point]
                  ) -> np.ndarray:
        """Equation 3 for every row of ``array`` (vectorized)."""
        maxrel, minpair = self._set_features(members)
        rel = self._dist_batch(array, self.query)
        div = self._min_dist_to_set(array, members)
        return (self.lam * np.maximum(0.0, rel - maxrel)
                + (1.0 - self.lam) * np.maximum(0.0, minpair - div))

    def phi(self, tuple_: Sequence[float], members: Sequence[Point]) -> float:
        return float(self.phi_batch(
            np.asarray([tuple_], dtype=float), members)[0])

    def phi_grow_batch(self, array: np.ndarray, members: Sequence[Point]
                       ) -> np.ndarray:
        """The growth-phase marginal (see module docstring)."""
        rel = self._dist_batch(array, self.query)
        if not members:
            return self.lam * rel
        div = self._min_dist_to_set(array, members)
        return self.lam * rel - (1.0 - self.lam) * div

    def _min_dist_to_set(self, array: np.ndarray,
                         members: Sequence[Point]) -> np.ndarray:
        if not members:
            return np.full(len(array), math.inf)
        out = np.full(len(array), math.inf)
        for member in members:
            out = np.minimum(out, self._dist_batch(array, member))
        return out

    # -- region bounds ---------------------------------------------------------

    def phi_lower_bound(self, rect: Rect, members: Sequence[Point],
                        grow: bool) -> float:
        """``phi^-``: a lower bound of the marginal over a whole region.

        ``phi`` increases with the candidate's distance to ``q`` and
        decreases with its distance to the set, so the bound plugs in
        ``mindist`` to ``q`` and ``maxdist`` to each member (Algorithm 20's
        ``phi^-``).
        """
        rel_lo = mindist(self.query, rect, self.p)
        div_hi = min((maxdist(m, rect, self.p) for m in members),
                     default=math.inf)
        if grow:
            if not members:
                return self.lam * rel_lo
            return self.lam * rel_lo - (1.0 - self.lam) * div_hi
        maxrel, minpair = self._set_features(members)
        return (self.lam * max(0.0, rel_lo - maxrel)
                + (1.0 - self.lam) * max(0.0, minpair - div_hi))

    # -- local scans -----------------------------------------------------------

    def candidate_key(self, score: float, point: Point):
        """Deterministic total order on candidates.

        Marginal scores tie in bulk (e.g. with ``|O| = 1`` and equal
        relevance/diversity metrics, ``phi_grow`` is constant), so every
        engine — centralized, RIPPLE, flooding — breaks ties the same way:
        prefer the more relevant candidate, then lexicographic.
        """
        return (score, minkowski_distance(point, self.query, self.p), point)

    def best_local(self, store: LocalStore, members: Sequence[Point],
                   exclude: Sequence[Point], grow: bool
                   ) -> tuple[float, Point] | None:
        """``getMostDiverseLocalObject``: the local tuple minimizing phi.

        Tuples already in ``exclude`` are masked out (the answer must come
        from outside the current set, Equation 2).  Ties resolve through
        :meth:`candidate_key`.
        """
        if len(store) == 0:
            return None
        array = store.array
        scores = (self.phi_grow_batch(array, members) if grow
                  else self.phi_batch(array, members))
        mask = np.ones(len(array), dtype=bool)
        for point in exclude:
            mask &= ~np.all(array == np.asarray(point, dtype=float), axis=1)
        if not mask.any():
            return None
        eligible = np.flatnonzero(mask)
        floor = scores[eligible].min()
        tied = eligible[scores[eligible] == floor]
        if len(tied) > 1:
            rel = self._dist_batch(array[tied], self.query)
            tied = tied[rel == rel.min()]
            best = min(tied, key=lambda i: as_point(array[i]))
        else:
            best = tied[0]
        return float(scores[best]), as_point(array[best])


#: A candidate-ordering key: (phi score, distance to q, the tuple itself).
#: All engines order candidates this way, so that the heavy score ties the
#: marginal functions produce (see :meth:`candidate_key`) resolve the same
#: everywhere.  Region pruning compares keys lexicographically against a
#: componentwise lower bound, which is sound because componentwise <=
#: implies lexicographic <=.
DivKey = tuple[float, float, tuple]

_NO_CANDIDATE: DivKey = (math.inf, math.inf, ())


def threshold_key(tau: float) -> DivKey:
    """The state key encoding "strictly better than ``tau``" (used when
    Algorithm 23 passes an explicit improvement threshold)."""
    return (tau, -math.inf, ())


@dataclass(frozen=True, slots=True)
class DivState:
    """The single-tuple query state: the best candidate key known.

    The paper's scalar threshold tau is ``key[0]``; the remaining
    components only disambiguate exact score ties.
    """

    key: DivKey = _NO_CANDIDATE

    @property
    def tau(self) -> float:
        return self.key[0]


class SingleDiversificationHandler(QueryHandler):
    """RIPPLE callbacks for the single tuple diversification query
    (Algorithms 16-21)."""

    def __init__(self, objective: DiversificationObjective,
                 members: Sequence[Point], *,
                 exclude: Sequence[Point] = (), grow: bool = False):
        self.objective = objective
        self.members = tuple(members)
        self.exclude = tuple(exclude) or self.members
        self.grow = grow

    def _best_key(self, store: LocalStore) -> DivKey | None:
        """The peer's best candidate key, cached on the store.

        Both the local state (Algorithm 16) and the local answer
        (Algorithm 18) need the same ``getMostDiverseLocalObject`` scan;
        the store memoizes it per handler instance (one handler = one
        single-tuple sub-query) and store version, halving the per-peer
        work of every sub-query.
        """
        return store.cached(("div-best", self),
                            lambda: self._compute_best_key(store))

    def _compute_best_key(self, store: LocalStore) -> DivKey | None:
        best = self.objective.best_local(store, self.members, self.exclude,
                                         self.grow)
        if best is None:
            return None
        return self.objective.candidate_key(best[0], best[1])

    # -- states (Algorithms 16, 17, 19) ---------------------------------------

    def initial_state(self) -> DivState:
        return DivState()

    def compute_local_state(self, store: LocalStore,
                            global_state: DivState) -> DivState:
        best = self._best_key(store)
        if best is not None and best < global_state.key:
            return DivState(best)
        return DivState(global_state.key)

    def compute_global_state(self, global_state: DivState,
                             local_state: DivState) -> DivState:
        """Algorithm 17 sets the global state to the local one, which is
        valid because Algorithm 16 folded the received threshold into it;
        taking the min additionally covers neutral (re-visit) local
        states, which must not erase the inherited threshold."""
        return DivState(min(global_state.key, local_state.key))

    def update_local_state(self, states: Sequence[DivState]) -> DivState:
        return DivState(min((s.key for s in states), default=_NO_CANDIDATE))

    # -- answers (Algorithm 18) --------------------------------------------------

    def compute_local_answer(self, store: LocalStore,
                             local_state: DivState) -> Point | None:
        best = self._best_key(store)
        if best is not None and best == local_state.key:
            return best[2]
        return None

    def answer_size(self, answer) -> int:
        return 0 if answer is None else 1

    def finalize(self, answers: Sequence[Point | None]
                 ) -> tuple[float, Point] | None:
        candidates = [a for a in answers if a is not None]
        if not candidates:
            return None
        scorer = (self.objective.phi_grow_batch if self.grow
                  else self.objective.phi_batch)
        scores = scorer(np.asarray(candidates, dtype=float), self.members)
        best = min(range(len(candidates)),
                   key=lambda i: self.objective.candidate_key(
                       float(scores[i]), candidates[i]))
        return float(scores[best]), candidates[best]

    # -- link decisions (Algorithms 20, 21) ----------------------------------------

    def _bound(self, region: Region) -> DivKey:
        return min(
            (self.objective.phi_lower_bound(rect, self.members, self.grow),
             mindist(self.objective.query, rect, self.objective.p),
             rect.lo)
            for rect in region.cover())

    def is_link_relevant(self, region: Region, global_state: DivState) -> bool:
        return self._bound(region) < global_state.key

    def link_priority(self, region: Region) -> DivKey:
        return self._bound(region)

    # -- seeding -------------------------------------------------------------------

    def seed_satisfied(self, state: DivState) -> bool:
        return state.tau < math.inf

    def probe_score(self, state: DivState) -> float:
        return -state.tau


class SingleQueryEngine(Protocol):
    """Anything that can answer single tuple diversification queries.

    Two implementations exist: :class:`RippleDiversifier` (this module)
    and the CAN flooding baseline
    (:class:`repro.baselines.div_baseline.FloodingDiversifier`).  Sharing
    the greedy driver between them enforces the paper's fairness device:
    both heuristics produce the same result at each step and the metrics
    capture pure processing cost.
    """

    def solve_single(self, objective: DiversificationObjective,
                     members: Sequence[Point], *, tau: float,
                     exclude: Sequence[Point], grow: bool
                     ) -> tuple[tuple[float, Point] | None, QueryStats]:
        ...  # pragma: no cover - protocol


class RippleDiversifier:
    """RIPPLE-based engine for single tuple diversification queries."""

    def __init__(self, overlay, initiator, *, r: int = 0,
                 seeded: bool = True, strict: bool = True, sink=None):
        self.overlay = overlay
        self.initiator = initiator
        self.r = r
        self.seeded = seeded
        self.strict = strict
        #: Trace sink shared by every single-tuple sub-query; a recorded
        #: diversification trace holds one root span per round.
        self.sink = sink

    def solve_single(self, objective, members, *, tau=math.inf,
                     exclude=(), grow=False):
        from ..core.framework import run_ripple
        from .drivers import run_seeded

        handler = SingleDiversificationHandler(
            objective, members, exclude=exclude, grow=grow)
        restriction = self.overlay.domain()
        initial = DivState() if math.isinf(tau) else DivState(threshold_key(tau))
        # Improvement queries (Algorithm 23) arrive with an explicit
        # threshold that prunes from the first hop, so only cold-start
        # queries benefit from routing to a seed first.
        if self.seeded and math.isinf(tau):
            domain = restriction.cover()[0]
            seed_point = tuple(min(max(v, l), h - 1e-12) for v, l, h in zip(
                objective.query, domain.lo, domain.hi))
            result = run_seeded(self.initiator, handler, self.r,
                                restriction=restriction,
                                seed_point=seed_point, strict=self.strict,
                                initial_state=initial, sink=self.sink)
        else:
            result = run_ripple(self.initiator, handler, self.r,
                                restriction=restriction, strict=self.strict,
                                initial_state=initial, sink=self.sink)
        return result.answer, result.stats


def greedy_diversify(
    engine: SingleQueryEngine,
    objective: DiversificationObjective,
    k: int,
    *,
    max_iters: int = 10,
) -> QueryResult:
    """Algorithms 22-23: greedy construction plus swap-based improvement.

    Returns a :class:`QueryResult` whose answer is ``(members, f_value)``
    with the accumulated cost of every distributed sub-query (sub-queries
    run back to back, so latencies add).
    """
    if k < 2:
        raise ValueError("k-diversification needs k >= 2")
    stats = QueryStats()
    members: list[Point] = []

    # initialize (Algorithm 22 line 1): k single-tuple queries, growing O.
    for _ in range(k):
        answer, cost = engine.solve_single(objective, members,
                                           tau=math.inf, exclude=members,
                                           grow=True)
        stats = stats.combine_sequential(cost)
        if answer is None:
            break  # fewer than k distinct tuples exist in the network
        members.append(answer[1])

    if len(members) >= 2:
        # improvement iterations (Algorithm 22 lines 2-9).
        for _ in range(max_iters):
            improved, members, cost = _improve(engine, objective, members)
            stats = stats.combine_sequential(cost)
            if not improved:
                break

    value = objective.f(members) if len(members) >= 2 else math.nan
    return QueryResult(answer=(members, value), stats=stats)


def _improve(engine: SingleQueryEngine,
             objective: DiversificationObjective,
             members: list[Point]) -> tuple[bool, list[Point], QueryStats]:
    """Algorithm 23: find the single best swap, if any improves f."""
    stats = QueryStats()
    ordered = sorted(
        members,
        key=lambda t: -objective.phi(t, _without(members, t)))
    best_value = objective.f(members)
    t_in: Point | None = None
    t_out: Point | None = None
    for candidate_out in ordered:
        base = _without(members, candidate_out)
        # The replacement must make the new set beat the best set known so
        # far: phi(t, base) < best_value - f(base)  (Alg. 23 lines 5-9).
        tau = best_value - objective.f(base) - _EPS
        answer, cost = engine.solve_single(objective, base, tau=tau,
                                           exclude=members, grow=False)
        stats = stats.combine_sequential(cost)
        if answer is not None:
            t_out, t_in = candidate_out, answer[1]
            best_value = objective.f([*base, t_in])
    if t_in is None or t_out is None:
        return False, members, stats
    return True, [*_without(members, t_out), t_in], stats


def _without(members: Sequence[Point], item: Point) -> list[Point]:
    out = list(members)
    out.remove(item)
    return out


def diversify_reference(
    array: np.ndarray,
    objective: DiversificationObjective,
    k: int,
    *,
    max_iters: int = 10,
) -> tuple[list[Point], float]:
    """Centralized oracle running the same greedy heuristic over all data.

    Used by tests to check that the distributed engines make exactly the
    same greedy decisions.
    """
    store = LocalStore(array.shape[1])
    store.bulk_load(array)

    class _LocalEngine:
        def solve_single(self, obj, members, *, tau, exclude, grow):
            best = obj.best_local(store, members, exclude, grow)
            if best is None or best[0] >= tau:
                return None, QueryStats()
            return best, QueryStats()

    result = greedy_diversify(_LocalEngine(), objective, k,
                              max_iters=max_iters)
    return result.answer
