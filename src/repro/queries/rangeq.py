"""Range queries: the foil the paper contrasts rank queries against.

Section 1: for a range query "the search area is explicitly defined in
the query", so RIPPLE's state machinery is trivial — no knowledge gained
while processing can shrink the search area any further.  The handler
exists (a) to serve actual range workloads over the same overlays and
(b) as the degenerate case that exercises the framework templates with a
stateless query, which the test-suite uses.
"""

from __future__ import annotations

from math import isfinite
from typing import Sequence

import numpy as np

from ..common.geometry import Point, Rect, as_point, contains_batch
from ..common.store import LocalStore
from ..core.handler import QueryHandler
from ..core.regions import Region

__all__ = ["RangeHandler", "range_reference"]


class RangeHandler(QueryHandler):
    """Retrieve every tuple inside an axis-aligned query box.

    A box with a non-finite coordinate or with ``lo >= hi`` along some
    dimension (half-open, it selects nothing) is rejected.
    """

    def __init__(self, box: Rect):
        if not all(map(isfinite, box.lo + box.hi)):
            raise ValueError(f"box needs finite coordinates, got {box}")
        if any(lo >= hi for lo, hi in zip(box.lo, box.hi)):
            raise ValueError(f"box {box} is empty: it needs lo < hi in "
                             f"every dimension")
        self.box = box
        self.dims = box.dims
        self._keyed(box)

    # The state is inert: nothing about the search area is learned.
    def initial_state(self) -> None:
        return None

    def compute_local_state(self, store: LocalStore, global_state) -> None:
        return None

    def compute_global_state(self, global_state, local_state) -> None:
        return None

    def update_local_state(self, states: Sequence[None]) -> None:
        return None

    def compute_local_answer(self, store: LocalStore,
                             local_state) -> list[Point]:
        if len(store) == 0:
            return []
        array = store.array
        inside = contains_batch(array, self.box.lo, self.box.hi)
        return [as_point(row) for row in array[inside]]

    def finalize(self, answers: Sequence[Sequence[Point]]) -> list[Point]:
        return sorted(point for answer in answers for point in answer)

    def is_link_relevant(self, region: Region, global_state) -> bool:
        return any(rect.intersects(self.box) for rect in region.cover())

    def link_priority(self, region: Region) -> float:
        # all relevant regions are equally necessary; keep link order
        return 0.0


def range_reference(array: np.ndarray, box: Rect) -> list[Point]:
    """Centralized oracle for the half-open box query."""
    array = np.asarray(array, dtype=float)
    inside = contains_batch(array, box.lo, box.hi)
    return sorted(as_point(row) for row in array[inside])
