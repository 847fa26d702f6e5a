"""Geometric primitives shared by every overlay and query handler.

The domain of a RIPPLE deployment is the unit hyper-rectangle ``[0, 1]^d``
(any axis-aligned box works).  Overlays carve the domain into *zones* (one
per peer) and, from each peer's viewpoint, into *regions* (one per link).
Query handlers never look at remote tuples directly; they reason about
regions through the bound helpers defined here:

* :func:`mindist` / :func:`maxdist` — distance bounds between a point and a
  box, used by the diversification lower bound ``phi^-``.
* :func:`dominates` / :meth:`Rect.dominated_by` — Pareto dominance between
  points and of a whole box by a point, used by skyline pruning.
* :meth:`Rect.corner` — the corner maximizing a monotone scoring function,
  used by the top-k upper bound ``f^+``.

All coordinates are plain Python floats held in tuples, which keeps regions
hashable, cheap to copy across simulated "messages", and independent from
the NumPy arrays used *inside* peers for bulk scans.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - geometry stays NumPy-free at runtime
    import numpy as np

Point = tuple[float, ...]

__all__ = [
    "Point",
    "Rect",
    "Interval",
    "Frustum",
    "as_point",
    "minkowski_distance",
    "mindist",
    "maxdist",
    "mindist_batch",
    "dominates",
    "contains_batch",
]


def as_point(values: Iterable[float]) -> Point:
    """Coerce an iterable of coordinates into a canonical ``Point`` tuple."""
    return tuple(float(v) for v in values)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def minkowski_distance(a: Sequence[float], b: Sequence[float], p: float) -> float:
    """The L_p distance between two points of equal dimensionality."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if p == 1:
        return sum(abs(x - y) for x, y in zip(a, b))
    if p == 2:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    if math.isinf(p):
        return max(abs(x - y) for x, y in zip(a, b))
    return sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Pareto dominance
# ---------------------------------------------------------------------------

def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (lower values are better).

    ``a`` dominates ``b`` when it is no worse on every dimension and
    strictly better on at least one (Section 5.1 of the paper).
    """
    strictly_better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better


# ---------------------------------------------------------------------------
# Axis-aligned rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned box ``[lo_i, hi_i]`` per dimension.

    ``Rect`` doubles as the *zone* of a peer and as the *region* of a link
    in tree-structured overlays (MIDAS), where sibling subtrees correspond
    to boxes.  Zones tile the domain half-open (a point on a shared face
    belongs to the zone with the lower coordinates, see :meth:`contains`),
    while bound computations treat boxes as closed, which is the
    conservative direction for pruning.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimensionality mismatch")
        if any(map(operator.gt, self.lo, self.hi)):
            raise ValueError(f"empty rectangle: lo={self.lo} hi={self.hi}")

    @classmethod
    def unit(cls, dims: int) -> "Rect":
        """The unit domain ``[0, 1]^dims``."""
        return cls((0.0,) * dims, (1.0,) * dims)

    @property
    def dims(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> Point:
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    def volume(self) -> float:
        out = 1.0
        for l, h in zip(self.lo, self.hi):
            out *= h - l
        return out

    def contains(self, point: Sequence[float], *, closed: bool = False) -> bool:
        """Half-open membership test: ``lo_i <= p_i < hi_i`` on every
        axis, the domain's upper faces included.

        Half-open semantics make sibling zones a partition: every point
        of ``[0, 1)^d`` belongs to exactly one zone, and a point on an
        upper face of the domain to none (``Rect.unit(2).contains((1.0,
        0.5))`` is False) — which is why ``load()`` rejects a coordinate
        of 1.0.  Pass ``closed=True`` for the conservative closed-box
        test used when pruning.
        """
        if closed:
            return all(l <= p <= h for p, l, h in zip(point, self.lo, self.hi))
        # A plain loop: greedy routing asks this of every link it passes.
        for p, l, h in zip(point, self.lo, self.hi):
            if not l <= p < h:
                return False
        return True

    def contains_rect(self, other: "Rect") -> bool:
        return all(sl <= ol and oh <= sh
                   for sl, ol, oh, sh in zip(self.lo, other.lo, other.hi, self.hi))

    def intersects(self, other: "Rect") -> bool:
        """True when the closed boxes share at least a face point."""
        return all(sl <= oh and ol <= sh
                   for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping box, or ``None`` when the interiors are disjoint.

        Degenerate (zero-volume) overlaps count as empty: two zones that
        merely abut do not share any half-open domain point.
        """
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l >= h for l, h in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def split(self, dim: int, value: float) -> tuple["Rect", "Rect"]:
        """Split along ``dim`` at ``value`` into (lower, upper) halves."""
        if not self.lo[dim] < value < self.hi[dim]:
            raise ValueError(
                f"split value {value} outside ({self.lo[dim]}, {self.hi[dim]})")
        lo_hi = tuple(value if i == dim else h for i, h in enumerate(self.hi))
        hi_lo = tuple(value if i == dim else l for i, l in enumerate(self.lo))
        return Rect(self.lo, lo_hi), Rect(hi_lo, self.hi)

    def corner(self, maximize: Sequence[bool]) -> Point:
        """The corner picking ``hi`` where ``maximize[i]`` else ``lo``.

        A monotone scoring function attains its box-wide extremum at a
        corner, which yields the paper's ``f^+`` upper bound.
        """
        return tuple(h if m else l
                     for l, h, m in zip(self.lo, self.hi, maximize))

    def clamp(self, point: Sequence[float]) -> Point:
        """The closest point of the box to ``point``."""
        return tuple(min(max(p, l), h)
                     for p, l, h in zip(point, self.lo, self.hi))

    def dominated_by(self, point: Sequence[float]) -> bool:
        """True iff ``point`` dominates *every* tuple that could lie here.

        Equivalent to ``point`` dominating the box's most preferable corner
        ``lo`` (lower values are better), the test of Algorithm 14.
        """
        return dominates(point, self.lo)

    def sample(self, rng: "np.random.Generator") -> Point:
        """A uniform random point of the box (``rng``: numpy Generator)."""
        return tuple(float(rng.uniform(l, h)) for l, h in zip(self.lo, self.hi))


def mindist(point: Sequence[float], rect: Rect, p: float = 2) -> float:
    """Minimum L_p distance from ``point`` to any point of ``rect``."""
    return minkowski_distance(point, rect.clamp(point), p)


def maxdist(point: Sequence[float], rect: Rect, p: float = 2) -> float:
    """Maximum L_p distance from ``point`` to any point of ``rect``."""
    farthest = tuple(l if abs(q - l) >= abs(q - h) else h
                     for q, l, h in zip(point, rect.lo, rect.hi))
    return minkowski_distance(point, farthest, p)


# ---------------------------------------------------------------------------
# Batched box tests (the wavefront / arena hot path)
# ---------------------------------------------------------------------------
#
# The scalar helpers above are per-hop primitives: one point, one box.  A
# batched wavefront evaluates them for every tuple (or every link) touched
# in one expansion wave, so the arena kernels consume array forms.  Both
# accept per-row bounds — ``lo``/``hi`` broadcast against ``points`` — and
# reproduce the scalar results exactly (same comparisons, no re-ordering
# of floating-point work).

def contains_batch(points: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray",
                   *, closed: bool = False) -> "np.ndarray":
    """Vectorized :meth:`Rect.contains`: one boolean per row of ``points``.

    ``points`` is ``(m, d)``; ``lo``/``hi`` are ``(d,)`` (one box for all
    rows) or ``(m, d)`` (a box per row).  Matches the scalar test bit for
    bit: half-open ``lo <= p < hi`` by default, closed boxes with
    ``closed=True``.
    """
    import numpy as np

    points = np.asarray(points, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    upper = points <= hi if closed else points < hi
    return np.logical_and(points >= lo, upper).all(axis=-1)


def mindist_batch(point: Sequence[float], lo: "np.ndarray",
                  hi: "np.ndarray", p: float = 2) -> "np.ndarray":
    """Vectorized :func:`mindist` from one ``point`` to many boxes.

    ``lo``/``hi`` are ``(m, d)`` stacked box bounds; returns the ``(m,)``
    minimum L_p distances.  The clamp is computed exactly like
    :meth:`Rect.clamp` (min/max per coordinate) and coordinates are
    added left to right, so for ``p`` in {1, inf} each row is
    bit-identical to the scalar ``mindist(point, Rect(lo[i], hi[i]), p)``.
    For ``p = 2`` about one row in a thousand differs by an ulp (the
    scalar squares through libm ``pow``, NumPy multiplies), and for other
    ``p`` the vectorized ``x ** (1/p)`` root may as well.
    """
    import numpy as np

    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    q = np.asarray(tuple(float(v) for v in point))
    delta = np.abs(np.minimum(np.maximum(q, lo), hi) - q)
    if p == 1:
        return _row_sums(delta)
    if math.isinf(p):
        return delta.max(axis=-1)
    if p == 2:
        return np.sqrt(_row_sums(delta * delta))
    return _row_sums(delta ** p) ** (1.0 / p)


def _row_sums(values: "np.ndarray") -> "np.ndarray":
    """Sums over the last axis, added left to right as Python's ``sum``
    adds (``ndarray.sum`` pairs terms up from eight on)."""
    return functools.reduce(operator.add, (
        values[..., j] for j in range(values.shape[-1])))


# ---------------------------------------------------------------------------
# Ring intervals (Chord regions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open arc ``[start, end)`` on the unit ring ``[0, 1)``.

    Chord keys live on a ring, so an interval may *wrap* around 1.0
    (``start > end``).  ``start == end`` denotes the full ring, which is
    what a single-peer network's sole region covers.  It is a plain
    value: :meth:`~repro.core.regions.ArcRegion.from_interval` turns it
    into the region that answers membership, length and intersection.
    """

    start: float
    end: float


# ---------------------------------------------------------------------------
# Frustum regions (CAN)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Frustum:
    """A pyramidal frustum between a slice of a domain face and a zone face.

    Section 3.1 assigns to each CAN neighbor the frustum whose *top* is the
    shared face between the peer's zone and that neighbor, and whose *base*
    is the corresponding slice of the domain boundary face (a trapezoid in
    2-d).  The frustum extends along ``axis`` from ``base_coord`` (on the
    domain boundary) to ``top_coord`` (the zone face); its cross-section
    interpolates linearly between ``base`` and ``top`` boxes over the
    remaining dimensions.

    ``base``/``top`` are full-dimensional :class:`Rect` objects that are
    flat along ``axis`` — this keeps all bound computations reusable.
    """

    axis: int
    base: Rect
    top: Rect

    @property
    def dims(self) -> int:
        return self.base.dims

    @property
    def base_coord(self) -> float:
        return self.base.lo[self.axis]

    @property
    def top_coord(self) -> float:
        return self.top.lo[self.axis]

    def bounding_box(self) -> Rect:
        """The tight axis-aligned hull, used for conservative pruning."""
        lo = tuple(min(a, b) for a, b in zip(self.base.lo, self.top.lo))
        hi = tuple(max(a, b) for a, b in zip(self.base.hi, self.top.hi))
        return Rect(lo, hi)

    def contains(self, point: Sequence[float]) -> bool:
        """Exact membership via linear interpolation of the cross-section."""
        lo_a, hi_a = sorted((self.base_coord, self.top_coord))
        coord = point[self.axis]
        if not lo_a <= coord <= hi_a:
            return False
        span = self.top_coord - self.base_coord
        t = 0.0 if span == 0.0 else (coord - self.base_coord) / span
        for dim in range(self.dims):
            if dim == self.axis:
                continue
            lo = self.base.lo[dim] + t * (self.top.lo[dim] - self.base.lo[dim])
            hi = self.base.hi[dim] + t * (self.top.hi[dim] - self.base.hi[dim])
            if not lo <= point[dim] <= hi:
                return False
        return True
