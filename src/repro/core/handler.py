"""The abstract query handler: RIPPLE's pluggable per-query logic.

Algorithms 1–3 of the paper are *templates*: they orchestrate message flow
but delegate every query-specific decision to six abstract functions.  A
:class:`QueryHandler` bundles those functions; Sections 4–6 of the paper
(and :mod:`repro.queries`) provide one handler per query type:

========================  =======================================
paper pseudocode          handler method
========================  =======================================
``computeLocalState``     :meth:`QueryHandler.compute_local_state`
``computeGlobalState``    :meth:`QueryHandler.compute_global_state`
``updateLocalState``      :meth:`QueryHandler.update_local_state`
``computeLocalAnswer``    :meth:`QueryHandler.compute_local_answer`
``isLinkRelevant``        :meth:`QueryHandler.is_link_relevant`
``comp`` (via sortLinks)  :meth:`QueryHandler.link_priority`
========================  =======================================

Handlers whose two link decisions reduce to one number per box region
(top-k's ``f^+``) may also answer them for all links of a visit at once
through :meth:`QueryHandler.box_bounds`.

A handler is the query's value: its :attr:`~QueryHandler.key` holds the
query's parameters, and two handlers of one type with equal keys are
equal and hash alike, so the result cache recognises a repeat of a query
however many times it is rebuilt.

States are opaque to the framework: it only moves them around.  The
geometric half of ``isLinkRelevant`` — does the link's region overlap the
restriction area? — lives in the framework; the handler only answers the
query-specific half over the (already restricted) region.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Sequence

import numpy as np

from ..common.store import LocalStore
from .regions import Region

__all__ = ["QueryHandler"]


class QueryHandler(ABC):
    """Query-specific callbacks consumed by the RIPPLE templates."""

    #: Dimensionality of the tuples the query reads; None reads any.
    dims: int | None = None
    #: The query's parameters: handlers of one type with equal keys are
    #: equal and hash alike.  None compares by identity and keeps the
    #: query out of the result cache.
    key: Hashable = None
    _hash: int

    def _keyed(self, key: Hashable) -> None:
        """Set :attr:`key` and hash it once, as the scoring functions do."""
        self.key = key
        self._hash = hash((type(self), key))

    def __eq__(self, other: object) -> bool:
        if self.key is None or not isinstance(other, QueryHandler):
            return self is other
        return type(other) is type(self) and other.key == self.key

    def __hash__(self) -> int:
        return object.__hash__(self) if self.key is None else self._hash

    def check_restriction(self, restriction: Region) -> None:
        """The API-boundary check of every entry point: ``ValueError``,
        naming both, unless ``restriction`` has the query's dimensionality."""
        area = restriction.cover()[0].dims
        if self.dims is not None and self.dims != area:
            raise ValueError(f"{type(self).__name__} reads {self.dims}-d "
                             f"tuples, restriction {restriction!r} is "
                             f"{area}-d")

    @abstractmethod
    def initial_state(self) -> Any:
        """The neutral global state the initiator starts from."""

    @abstractmethod
    def compute_local_state(self, store: LocalStore, global_state: Any) -> Any:
        """Derive this peer's local state from its tuples and the received
        global state."""

    @abstractmethod
    def compute_global_state(self, global_state: Any, local_state: Any) -> Any:
        """Fold a local state into the received global state."""

    @abstractmethod
    def update_local_state(self, states: Sequence[Any]) -> Any:
        """Merge several local states (own + those returned by links)."""

    @abstractmethod
    def compute_local_answer(self, store: LocalStore, local_state: Any) -> Any:
        """Extract the locally qualifying tuples for the initiator."""

    @abstractmethod
    def is_link_relevant(self, region: Region, global_state: Any) -> bool:
        """Could ``region`` still contribute to the answer, given the state?"""

    @abstractmethod
    def link_priority(self, region: Region) -> float:
        """Sort key for sequential forwarding; smaller = contacted earlier."""

    def box_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
        """Optional batched form of both link decisions over box regions.

        For ``S`` boxes given as ``(S, d)`` bounds, an ``(S,)`` array
        ``b`` with ``link_priority(box) == -b`` and
        ``is_link_relevant(box, state) == (b >= bound_cutoff(state))``,
        bit for bit — a visit then decides all its box links with one
        call and a float comparison each.  ``None`` (the default) keeps
        the per-link callbacks.
        """
        return None

    def bound_cutoff(self, global_state: Any) -> float:
        """The least :meth:`box_bounds` value still relevant under
        ``global_state``; required of handlers that implement it."""
        raise NotImplementedError

    def neutral_local_state(self) -> Any:
        """The identity element of :meth:`update_local_state`.

        Reported by peers that receive a query a second time (possible only
        over approximate region covers) so nothing is double-counted.
        """
        return self.update_local_state(())

    @abstractmethod
    def finalize(self, answers: Sequence[Any]) -> Any:
        """Combine the local answers collected at the initiator."""

    def seed_satisfied(self, state: Any) -> bool:
        """Whether a seeding probe (see :mod:`repro.queries.drivers`) has
        gathered enough state to stop; True disables probing."""
        return True

    def probe_score(self, state: Any) -> float:
        """How strong a probe harvest is (monotone; higher is stronger).

        The seeding probe keeps walking while this still improves, so the
        threshold it hands to the fan-out phase has converged.  The
        default (a constant) makes ``seed_satisfied`` the sole stop rule.
        """
        return 0.0

    def answer_size(self, answer: Any) -> int:
        """Number of tuples shipped to the initiator for ``answer`` (a
        sequence of points or an ``(m, d)`` row block)."""
        return len(answer)
