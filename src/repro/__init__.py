"""RIPPLE: a scalable framework for distributed processing of rank queries.

Reproduction of Tsatsanifos, Sacharidis & Sellis, EDBT 2014.

Public API quick reference::

    from repro import MidasOverlay, TopKHandler, LinearScore, run_ripple

    overlay = MidasOverlay(dims=6, seed=7, join_policy="data")
    overlay.load(dataset)                       # (n, 6) array of tuples
    overlay.grow_to(1024)
    handler = TopKHandler(LinearScore([1] * 6), k=10)
    result = run_ripple(overlay.random_peer(), handler, r=2,
                        restriction=overlay.domain())
    result.answer                               # [(score, tuple), ...]
    result.stats.latency, result.stats.processed

Higher-level entry points: :func:`repro.queries.topk.distributed_topk`,
:func:`repro.queries.skyline.distributed_skyline`,
:func:`repro.queries.diversify.greedy_diversify`.  Competitor baselines
live in :mod:`repro.baselines`; the experiment suite regenerating every
figure of the paper is ``python -m repro.experiments``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from .common.geometry import Frustum, Interval, Point, Rect, dominates
from .common.scoring import LinearScore, NearestScore, ScoringFunction
from .common.store import LocalStore, Replica
from .core.framework import Link, SLOW, physical_id, run_fast, run_ripple, \
    run_slow
from .core.handler import QueryHandler
from .core.regions import (ArcRegion, FrustumRegion, RectRegion, Region,
                           domain_region)
from .net.adaptive import (AdaptiveFanout, CostEstimate, CostModel,
                           EngineLoad, calibrate_fanout)
from .net.context import QueryResult, QueryStats
from .net.detector import FailureDetector
from .net.resultcache import CacheDirectory, CacheEntry, CacheLookup
from .net.eventsim import SimulationBudgetExceeded, event_driven_ripple
from .net.faults import FaultPlan, resilient_ripple
from .net.scheduler import (AdmissionPolicy, FifoPolicy, PriorityPolicy,
                            QueryBudgetExceeded, QueryCompleted,
                            QueryDeadlineExceeded, QueryEngine, QueryJob,
                            QueryOutcome, QueryRejected, WeightedFairPolicy)
from .net.workload import (WorkloadReport, WorkloadSpec, poisson_arrivals,
                           run_workload)
from .obs import (MetricsRegistry, NullSink, QueryTrace, TraceSink,
                  critical_path, metrics_of, replay)
from .overlays.baton import BatonOverlay, BatonPeer
from .overlays.can import CanOverlay, CanPeer
from .overlays.chord import ChordOverlay, ChordPeer
from .overlays.midas import MidasOverlay, MidasPeer
from .overlays.replication import PromotedPeer, ReplicaDirectory
from .overlays.skipgraph import SkipGraphOverlay, SkipGraphPeer
from .overlays.zcurve import ZCurve
from .queries.diversify import (DiversificationObjective, RippleDiversifier,
                                greedy_diversify)
from .queries.rangeq import RangeHandler
from .queries.skyline import SkylineHandler, distributed_skyline, skyline_reference
from .queries.topk import TopKHandler, distributed_topk, topk_reference

__version__ = "1.0.0"

__all__ = [
    "AdaptiveFanout",
    "AdmissionPolicy",
    "ArcRegion",
    "BatonOverlay",
    "BatonPeer",
    "CacheDirectory",
    "CacheEntry",
    "CacheLookup",
    "CanOverlay",
    "CanPeer",
    "ChordOverlay",
    "ChordPeer",
    "CostEstimate",
    "CostModel",
    "DiversificationObjective",
    "EngineLoad",
    "FailureDetector",
    "FaultPlan",
    "FifoPolicy",
    "Frustum",
    "FrustumRegion",
    "Interval",
    "LinearScore",
    "Link",
    "LocalStore",
    "MetricsRegistry",
    "MidasOverlay",
    "MidasPeer",
    "NearestScore",
    "NullSink",
    "Point",
    "PriorityPolicy",
    "PromotedPeer",
    "QueryBudgetExceeded",
    "QueryCompleted",
    "QueryDeadlineExceeded",
    "QueryEngine",
    "QueryHandler",
    "QueryJob",
    "QueryOutcome",
    "QueryRejected",
    "QueryResult",
    "QueryStats",
    "QueryTrace",
    "RangeHandler",
    "Rect",
    "RectRegion",
    "Region",
    "Replica",
    "ReplicaDirectory",
    "RippleDiversifier",
    "SLOW",
    "ScoringFunction",
    "SimulationBudgetExceeded",
    "SkipGraphOverlay",
    "SkipGraphPeer",
    "SkylineHandler",
    "TopKHandler",
    "TraceSink",
    "WeightedFairPolicy",
    "WorkloadReport",
    "WorkloadSpec",
    "ZCurve",
    "calibrate_fanout",
    "critical_path",
    "distributed_skyline",
    "distributed_topk",
    "domain_region",
    "dominates",
    "event_driven_ripple",
    "greedy_diversify",
    "metrics_of",
    "physical_id",
    "poisson_arrivals",
    "replay",
    "resilient_ripple",
    "run_fast",
    "run_ripple",
    "run_slow",
    "run_workload",
    "skyline_reference",
    "topk_reference",
    "__version__",
]
