"""Simulation runtime: cost accounting, routing, and fault injection.

The engines (``eventsim``, ``faults``, ``scheduler``, ``workload``)
import :mod:`repro.core.framework`, which imports :mod:`.context`, so
this package loads only ``context`` and ``routing``: import the other
modules' names from those modules or from :mod:`repro`.
"""

from .context import DuplicateVisitError, QueryContext, QueryResult, QueryStats
from .routing import RoutingError, greedy_route, route_around

__all__ = ["DuplicateVisitError", "QueryContext", "QueryResult",
           "QueryStats", "RoutingError", "greedy_route", "route_around"]
