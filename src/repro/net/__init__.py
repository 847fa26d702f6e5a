"""Simulation runtime: cost accounting, routing, and fault injection."""

from typing import Any

from .context import DuplicateVisitError, QueryContext, QueryResult, QueryStats
from .routing import RoutingError, greedy_route, route_around

__all__ = ["DuplicateVisitError", "QueryContext", "QueryResult",
           "QueryStats", "RoutingError", "greedy_route", "route_around",
           "EventSimulator", "SimulationBudgetExceeded",
           "event_driven_ripple", "DEFAULT_MAX_EVENTS",
           "FailureDetector", "FaultPlan", "region_volume",
           "resilient_ripple",
           "AdmissionPolicy", "FifoPolicy", "PriorityPolicy",
           "WeightedFairPolicy", "QueryJob", "QueryOutcome",
           "QueryCompleted", "QueryRejected", "QueryDeadlineExceeded",
           "QueryBudgetExceeded", "QueryEngine",
           "WorkloadSpec", "WorkloadReport", "poisson_arrivals",
           "run_workload",
           "CacheDirectory", "CacheEntry", "CacheLookup",
           "AdaptiveFanout", "CostEstimate", "CostModel", "EngineLoad",
           "calibrate_fanout"]

_EVENTSIM = {"EventSimulator", "SimulationBudgetExceeded",
             "event_driven_ripple", "DEFAULT_MAX_EVENTS"}
_FAULTS = {"FaultPlan", "region_volume", "resilient_ripple"}
_DETECTOR = {"FailureDetector"}
_SCHEDULER = {"AdmissionPolicy", "FifoPolicy", "PriorityPolicy",
              "WeightedFairPolicy", "QueryJob", "QueryOutcome",
              "QueryCompleted", "QueryRejected", "QueryDeadlineExceeded",
              "QueryBudgetExceeded", "QueryEngine"}
_WORKLOAD = {"WorkloadSpec", "WorkloadReport", "poisson_arrivals",
             "run_workload"}
_RESULTCACHE = {"CacheDirectory", "CacheEntry", "CacheLookup"}
_ADAPTIVE = {"AdaptiveFanout", "CostEstimate", "CostModel", "EngineLoad",
             "calibrate_fanout"}


def __getattr__(name: str) -> Any:
    # Lazy so that repro.core.framework can import .context while this
    # package initializes without cycling through the engines (which
    # import the framework back).
    if name in _EVENTSIM:
        from . import eventsim
        return getattr(eventsim, name)
    if name in _FAULTS:
        from . import faults
        return getattr(faults, name)
    if name in _DETECTOR:
        from . import detector
        return getattr(detector, name)
    if name in _SCHEDULER:
        from . import scheduler
        return getattr(scheduler, name)
    if name in _WORKLOAD:
        from . import workload
        return getattr(workload, name)
    if name in _RESULTCACHE:
        from . import resultcache
        return getattr(resultcache, name)
    if name in _ADAPTIVE:
        from . import adaptive
        return getattr(adaptive, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
