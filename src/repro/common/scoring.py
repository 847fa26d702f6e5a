"""Scoring functions for top-k queries.

Section 4 of the paper requires a *unimodal* scoring function ``f`` (a
function with a unique local maximum; every monotone function qualifies)
together with an upper bound ``f^+`` over a region: the best score any
tuple inside the region could possibly attain.  ``f^+`` drives both link
pruning (Algorithm 8) and link prioritization (Algorithm 9).

Scores are *maximized*: the top-k answer holds the ``k`` tuples of highest
score.  Every implementation is vectorized over NumPy arrays so that peers
can scan their local store in bulk.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .geometry import Point, Rect, mindist, mindist_batch

__all__ = ["ScoringFunction", "LinearScore", "NearestScore"]


def _finite_vector(name: str, values: Sequence[float]) -> Point:
    """``values`` as a non-empty tuple of finite floats, else ValueError."""
    vector = tuple(float(v) for v in values)
    if not vector or not all(math.isfinite(v) for v in vector):
        raise ValueError(f"{name} must be a non-empty sequence of finite "
                         f"numbers, got {list(vector)!r}")
    return vector


class ScoringFunction(ABC):
    """A unimodal scoring function with a per-region upper bound.

    Implementations compare and hash by value (their parameters): the
    per-store score index is keyed on the function, and two functions
    built from equal parameters score identically.
    """

    #: Dimensionality of the tuples the function scores.
    dims: int

    @abstractmethod
    def score(self, point: Sequence[float]) -> float:
        """Score of a single tuple (higher is better)."""

    @abstractmethod
    def score_batch(self, array: np.ndarray) -> np.ndarray:
        """Scores of an ``(m, d)`` array of tuples, as an ``(m,)`` array."""

    def score_rows(self, points: Sequence[Sequence[float]]) -> list[float]:
        """``[score(t) for t in points]``, bit for bit (``score_batch`` may
        round differently in the last place).  The default loops."""
        return [self.score(point) for point in points]

    @abstractmethod
    def upper_bound(self, rect: Rect) -> float:
        """The paper's ``f^+``: max possible score of any tuple in ``rect``."""

    def upper_bound_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``f^+`` of ``S`` boxes given as ``(S, d)`` bounds, as ``(S,)``.

        Row ``i`` equals ``upper_bound(Rect(lo[i], hi[i]))`` bit for bit:
        pruning and link order must not depend on which form a visit
        happened to ask.  The default loops over the scalar bound.
        """
        return np.array([self.upper_bound(Rect(tuple(l), tuple(h)))
                         for l, h in zip(lo.tolist(), hi.tolist())])

    @abstractmethod
    def peak(self, rect: Rect) -> Point:
        """The point of ``rect`` where the (unimodal) score is maximal.

        Used by the seeded drivers to decide where a top-k query should
        start processing.
        """


class LinearScore(ScoringFunction):
    """Weighted sum ``f(t) = sum_i w_i * t_i``.

    The classic monotone top-k scoring function (e.g. aggregating NBA
    per-game statistics).  ``f^+`` is attained at the corner of the region
    selected by the signs of the weights.
    """

    def __init__(self, weights: Sequence[float]) -> None:
        self.weights = _finite_vector("weights", weights)
        self.dims = len(self.weights)
        self._w = np.asarray(self.weights, dtype=float)
        self._maximize = tuple(w >= 0 for w in self.weights)
        #: Which corner maximises each axis; None when it is ``hi`` on all.
        self._maximize_mask = None if all(self._maximize) else self._w >= 0
        self._hash = hash((LinearScore, self.weights))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearScore) \
            and other.weights == self.weights

    def __hash__(self) -> int:
        return self._hash

    def score(self, point: Sequence[float]) -> float:
        return float(np.dot(self._w, np.asarray(point, dtype=float)))

    def score_batch(self, array: np.ndarray) -> np.ndarray:
        return np.asarray(array, dtype=float) @ self._w

    def _dot_rows(self, rows: np.ndarray) -> np.ndarray:
        # One dot product per row, as ``score`` computes it; ``rows @ w``
        # (gemv) rounds differently in the last place.
        return np.matmul(rows[:, None, :], self._w[:, None])[:, 0, 0]

    def score_rows(self, points: Sequence[Sequence[float]]) -> list[float]:
        if not len(points):
            return []
        return self._dot_rows(np.asarray(points, dtype=float)).tolist()

    def upper_bound(self, rect: Rect) -> float:
        return self.score(rect.corner(self._maximize))

    def upper_bound_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        mask = self._maximize_mask
        return self._dot_rows(hi if mask is None else np.where(mask, hi, lo))

    def peak(self, rect: Rect) -> Point:
        return rect.corner(self._maximize)

    def __repr__(self) -> str:
        return f"LinearScore({list(self.weights)})"


class NearestScore(ScoringFunction):
    """Proximity score ``f(t) = -||t - q||_p``: top-k = k-nearest-neighbors.

    Unimodal but not monotone — it peaks at the query point ``q`` — which
    exercises the framework beyond corner-evaluated bounds: ``f^+`` over a
    region is ``-mindist(q, region)``.
    """

    def __init__(self, query: Sequence[float], p: float = 2) -> None:
        self.query: Point = _finite_vector("query", query)
        if not p > 0:
            raise ValueError(f"p must be positive, got {p}")
        self.dims = len(self.query)
        self.p = p
        self._q = np.asarray(self.query, dtype=float)
        self._hash = hash((NearestScore, self.query, p))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NearestScore) \
            and other.query == self.query and other.p == self.p

    def __hash__(self) -> int:
        return self._hash

    def score(self, point: Sequence[float]) -> float:
        diff = np.abs(np.asarray(point, dtype=float) - self._q)
        return -float(np.linalg.norm(diff, ord=self.p))

    def score_batch(self, array: np.ndarray) -> np.ndarray:
        diff = np.asarray(array, dtype=float) - self._q
        return -np.linalg.norm(diff, ord=self.p, axis=1)

    def upper_bound(self, rect: Rect) -> float:
        return -mindist(self.query, rect, self.p)

    def upper_bound_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # Only sums and maxima vectorise bit for bit: the scalar L2 squares
        # through libm ``pow`` and other roots differ by an ulp as well.
        if self.p == 1 or math.isinf(self.p):
            return -mindist_batch(self.query, lo, hi, self.p)
        return super().upper_bound_batch(lo, hi)

    def peak(self, rect: Rect) -> Point:
        return rect.clamp(self.query)

    def __repr__(self) -> str:
        return f"NearestScore(q={list(self.query)}, p={self.p})"
