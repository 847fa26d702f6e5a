"""Top-k query processing with RIPPLE (Section 4, Algorithms 4-9).

Scores are maximized: the answer is the ``k`` tuples of highest score
under a unimodal scoring function ``f`` (Section 4), pruned through the
region upper bound ``f^+`` (Algorithm 8) and prioritized by it
(Algorithm 9).

**State representation.**  The paper sketches the abstract state as a
scalar certificate ``(m, tau)`` — ``m`` tuples scoring at least ``tau``
retrieved so far (Algorithms 4, 5, 7).  A scalar certificate loses
information: a peer holding one excellent and one poor tuple can only
report the pair's *minimum* score, so the merged threshold stalls far
below the true ``k``-th score and pruning never tightens.  Section 3
explicitly leaves the state open ("a set of local/remote records, or
bounds/guarantees for these tuples"), so we carry the lossless version:
the **multiset of the best k scores retrieved so far** plus a ``floor``
(the strongest threshold any certificate along the way established).  The
scalar ``(m, tau)`` of the pseudocode is the projection
``(len(scores), tau())`` of this state, and every algorithm below reduces
to its printed counterpart when stores hold at most one tuple.  See
DESIGN.md ("Substitutions").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..common.geometry import Point
from ..common.scoring import ScoringFunction
from ..common.store import LocalStore
from ..core.handler import QueryHandler
from ..core.regions import Region

__all__ = ["TopKState", "TopKHandler", "distributed_topk", "topk_reference"]


@dataclass(frozen=True, slots=True, init=False)
class TopKState:
    """The best scores retrieved so far, plus the strongest known floor.

    ``scores`` is descending and holds at most ``k`` entries; ``floor`` is
    a sound global lower bound on the ``k``-th best score (tuples scoring
    below it can never appear in the answer).  The scalar certificate of
    the paper's pseudocode is ``(len(scores), min(scores))``.
    """

    scores: tuple[float, ...]
    floor: float

    def __init__(self, scores: tuple[float, ...] = (),
                 floor: float = -math.inf) -> None:
        # Every peer step builds states: set the slots directly rather
        # than through the frozen ``__setattr__`` guard.
        _set_scores(self, scores)
        _set_floor(self, floor)

    @property
    def count(self) -> int:
        return len(self.scores)


# The slot descriptors; mypy types class-level field access as the field.
_set_scores = TopKState.scores.__set__  # type: ignore[attr-defined]  # slot
_set_floor = TopKState.floor.__set__  # type: ignore[attr-defined]  # slot


class TopKHandler(QueryHandler):
    """RIPPLE callbacks for ``top-k`` under scoring function ``fn``.

    ``epsilon`` enables approximate retrieval in the spirit of KLEE
    (Section 2.1): a region is pruned unless it could contain a tuple
    beating the certified threshold by more than a ``(1 + epsilon)``
    slack, cutting traffic at the price of a bounded answer error — every
    returned score is within ``epsilon * |tau|`` of a true top-k score.
    ``epsilon = 0`` (the default) is exact.
    """

    def __init__(self, fn: ScoringFunction, k: int, *, epsilon: float = 0.0):
        # ``k`` slices score tuples; a bool is an int that means no count.
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise ValueError(f"k must be a positive int, got {k!r}")
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got "
                             f"{epsilon!r}")
        self.fn = fn
        self.dims = fn.dims
        self.k = k
        self.epsilon = epsilon
        self._keyed((fn, k, epsilon))

    def tau(self, state: TopKState) -> float:
        """The pruning threshold this state certifies.

        The ``k``-th best retrieved score once ``k`` tuples are known,
        else the inherited floor; ``-inf`` means nothing can be pruned yet
        (the ``m < k`` clause of Algorithm 8).
        """
        scores, floor = state.scores, state.floor
        if len(scores) >= self.k:
            kth = scores[self.k - 1]
            # ``max(floor, kth)``: the first of equals, so -0.0 stays.
            return kth if kth > floor else floor
        return floor

    def _merge(self, states: Sequence[TopKState]) -> TopKState:
        k = self.k
        first: TopKState | None = None
        if len(states) == 2:
            # The arity of every fold on the query path.  Scores are
            # descending by construction, so an empty side or a full one
            # nothing on the other side beats (ties keep the first side
            # first) needs no sort.
            first, second = states
            a, b = first.scores, second.scores
            if not b or len(a) >= k and b[0] <= a[k - 1]:
                scores = a[:k]
            elif not a:
                scores = b[:k]
            else:
                scores = tuple(sorted(a + b, reverse=True)[:k])
            floor = first.floor
            if second.floor > floor:
                floor = second.floor
        else:
            scores = tuple(sorted((s for state in states
                                   for s in state.scores), reverse=True)[:k])
            floor = max((state.floor for state in states), default=-math.inf)
        # A full merged list is itself a certificate; remember it.
        if len(scores) >= k and scores[k - 1] > floor:
            floor = scores[k - 1]
        if first is not None and scores is first.scores \
                and floor is first.floor:
            # Nothing on the second side mattered (a peer with nothing
            # above the threshold): the first state is the merge.
            return first
        return TopKState(scores, floor)

    # -- states (Algorithms 4, 5, 7) --------------------------------------

    def initial_state(self) -> TopKState:
        return TopKState()

    def neutral_local_state(self) -> TopKState:
        """``update_local_state(())``, without the generic merge."""
        return TopKState()

    def compute_local_state(self, store: LocalStore,
                            global_state: TopKState) -> TopKState:
        """Algorithm 4: the best local scores that can still matter.

        ``top_scores`` reads a prefix of the store's cached per-``fn``
        score index, so this scan and the answer scan of Algorithm 6
        score the peer's array once per query (and once across an entire
        sweep of queries on a static network).
        """
        cutoff = self.tau(global_state)
        return TopKState(store.top_scores(self.fn, self.k, above=cutoff),
                         cutoff)

    def compute_global_state(self, global_state: TopKState,
                             local_state: TopKState) -> TopKState:
        """Algorithm 5: fold the local certificate into the global one."""
        return self._merge((global_state, local_state))

    def update_local_state(self, states: Sequence[TopKState]) -> TopKState:
        """Algorithm 7: the strongest certificate the states support."""
        return self._merge(states)

    # -- answers (Algorithm 6) --------------------------------------------

    def compute_local_answer(self, store: LocalStore,
                             local_state: TopKState) -> np.ndarray:
        """The qualifying tuples as an ``(m, d)`` row block, store order."""
        return store.scoring_at_least(self.fn, self.tau(local_state))

    def finalize(self, answers: Sequence[np.ndarray]
                 ) -> list[tuple[float, Point]]:
        """Merge the collected row blocks into the global top-k.

        Returns ``(score, tuple)`` pairs, best first, ties broken by the
        tuple.  Rows are scored once by ``score_rows`` (bit-equal to
        ``fn.score``) and ordered by one ``lexsort`` on ``(-score,
        coordinates)`` — the ``(-score, tuple)`` sort key, stable, with
        ``-0.0 == 0.0`` as Python compares them.
        """
        blocks = [answer for answer in answers if len(answer)]
        if not blocks:
            return []
        rows = np.concatenate(blocks)
        scores = self.fn.score_rows(rows)
        order = np.lexsort((*rows.T[::-1], -np.array(scores)))[: self.k]
        return [(scores[i], tuple(row)) for i, row in
                zip(order.tolist(), rows[order].tolist())]

    # -- link decisions (Algorithms 8, 9) ----------------------------------

    def _region_upper_bound(self, region: Region) -> float:
        return max(self.fn.upper_bound(rect) for rect in region.cover())

    def is_link_relevant(self, region: Region, global_state: TopKState) -> bool:
        cutoff = self.bound_cutoff(global_state)
        return cutoff == -math.inf \
            or self._region_upper_bound(region) >= cutoff

    def link_priority(self, region: Region) -> float:
        return -self._region_upper_bound(region)

    def box_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``f^+`` of every box in one call: both decisions read it."""
        return self.fn.upper_bound_batch(lo, hi)

    def bound_cutoff(self, global_state: TopKState) -> float:
        """``tau`` plus the approximation slack; ``-inf`` (nothing can be
        pruned yet) admits every region."""
        tau = self.tau(global_state)
        return tau if tau == -math.inf else tau + self.epsilon * abs(tau)

    # -- seeding ------------------------------------------------------------

    def seed_satisfied(self, state: TopKState) -> bool:
        """The seed probe may stop once ``k`` tuples back the threshold."""
        return len(state.scores) >= self.k

    def probe_score(self, state: TopKState) -> float:
        """Probe until the harvested ``k``-th best score stops improving."""
        return self.tau(state)


def distributed_topk(
    initiator,
    fn: ScoringFunction,
    k: int,
    *,
    restriction: Region,
    r: int = 0,
    seeded: bool = True,
    strict: bool = True,
    sink=None,
    executor=None,
    cache=None,
):
    """End-to-end distributed top-k from ``initiator``.

    With ``seeded`` (the default, used by all experiments) the query first
    routes toward the scoring function's peak and probes best-first until
    ``k`` tuples back the threshold, so the ripple phase starts with a
    warm state; without it, Algorithm 3 runs cold from the initiator.
    ``cache`` (a :class:`~repro.net.resultcache.CacheDirectory`) enables
    exact and semantic answer reuse; it requires the seeded driver.
    Returns a :class:`~repro.net.context.QueryResult` whose ``answer`` is
    a list of ``(score, tuple)`` pairs, best first.
    """
    from ..core.framework import run_ripple
    from .drivers import run_seeded

    handler = TopKHandler(fn, k)
    handler.check_restriction(restriction)
    if not seeded:
        if cache is not None:
            raise ValueError("answer caching requires the seeded driver")
        return run_ripple(initiator, handler, r,
                          restriction=restriction, strict=strict, sink=sink,
                          executor=executor)
    domain = restriction.cover()[0]
    seed_point = tuple(min(v, h - 1e-12)
                       for v, h in zip(fn.peak(domain), domain.hi))
    return run_seeded(initiator, handler, r, restriction=restriction,
                      seed_point=seed_point, strict=strict, sink=sink,
                      executor=executor, cache=cache)


def topk_reference(array, fn: ScoringFunction, k: int) -> list[tuple[float, Point]]:
    """Centralized oracle: top-k over the full dataset, same tie-breaking."""
    from ..common.geometry import as_point

    scored = sorted(((float(fn.score(row)), as_point(row)) for row in array),
                    key=lambda pair: (-pair[0], pair[1]))
    return scored[:k]
