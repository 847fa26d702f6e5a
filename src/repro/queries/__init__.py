"""RIPPLE query instantiations: top-k, skyline, diversification, ranges."""

from .diversify import (DiversificationObjective, RippleDiversifier,
                        SingleDiversificationHandler, diversify_reference,
                        greedy_diversify)
from .drivers import run_seeded
from .rangeq import RangeHandler, range_reference
from .skyline import (SkylineHandler, distributed_skyline, merge_skylines,
                      skyline_of, skyline_of_array, skyline_reference)
from .topk import TopKHandler, TopKState, distributed_topk, topk_reference

__all__ = [
    "DiversificationObjective", "RangeHandler", "RippleDiversifier",
    "SingleDiversificationHandler", "SkylineHandler", "TopKHandler",
    "TopKState", "distributed_skyline", "distributed_topk",
    "diversify_reference", "greedy_diversify", "merge_skylines",
    "range_reference", "run_seeded", "skyline_of", "skyline_of_array",
    "skyline_reference", "topk_reference",
]
