"""Centralized oracles the distributed answers are compared with.

The oracles see the union of every peer's store at the moment of the
query and share no code path with the distributed protocols beyond the
scoring function itself: top-k is one vectorised score + partial sort
(re-scored through the scalar ``fn.score`` the handlers' ``finalize``
uses, so scores compare bit for bit, with the repo's ``(-score, tuple)``
tie-break); skylines go through the repo's own centralized
``skyline_reference``.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro import Rect, skyline_reference
from repro.common.geometry import as_point

__all__ = ["union_of_stores", "topk_oracle", "skyline_oracle"]

#: Extra candidates kept past ``k`` so a last-ulp difference between the
#: batched and the scalar score cannot push a true answer out of the cut.
_MARGIN = 16


def union_of_stores(peers: Iterable[Any]) -> np.ndarray:
    """All tuples currently stored in the network, in peer order."""
    blocks = [peer.store.array for peer in peers if len(peer.store)]
    return np.concatenate(blocks, axis=0)


def topk_oracle(rows: np.ndarray, fn: Any, k: int
                ) -> list[tuple[float, tuple[float, ...]]]:
    """The top-``k`` of ``rows`` under ``fn``: ``(score, tuple)`` pairs,
    best first, ties broken by the tuple."""
    scores = fn.score_batch(rows)
    keep = min(len(rows), k + _MARGIN)
    if keep < len(rows):
        # Everything at or above the keep-th best batch score: ties at the
        # cut are all kept, so the scalar re-score decides among them.
        cut = np.partition(scores, len(rows) - keep)[len(rows) - keep]
        candidates = np.flatnonzero(scores >= cut)
    else:
        candidates = np.arange(len(rows))
    scored = sorted(((fn.score(rows[i]), as_point(rows[i]))
                     for i in candidates),
                    key=lambda pair: (-pair[0], pair[1]))
    return scored[:k]


def skyline_oracle(rows: np.ndarray, constraint: Rect | None
                   ) -> list[tuple[float, ...]]:
    """The (constrained) skyline of ``rows``, sorted."""
    return skyline_reference(rows, constraint)
