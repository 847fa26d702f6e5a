"""The RIPPLE framework core: templates, regions, handler protocol,
latency analysis."""

from .analysis import (fast_latency, ripple_latency,
                       ripple_latency_closed_form, slow_latency)
from .framework import Link, PeerLike, SLOW, execute, run_ripple
from .handler import QueryHandler
from .regions import (ArcRegion, FrustumIntersection, FrustumRegion,
                      RectRegion, Region, domain_region)

__all__ = [
    "ArcRegion", "FrustumIntersection", "FrustumRegion", "Link",
    "PeerLike", "QueryHandler", "RectRegion", "Region", "SLOW",
    "domain_region", "execute", "fast_latency", "ripple_latency",
    "ripple_latency_closed_form", "run_ripple", "slow_latency",
]
