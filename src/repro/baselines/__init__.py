"""Competitor methods: the systems the paper's Section 7 compares
against (DSL, SSP over BATON, the flooding diversifier)."""

from .div_baseline import FloodingDiversifier, flood
from .dsl import dsl_skyline
from .ssp import ssp_skyline

__all__ = ["FloodingDiversifier", "dsl_skyline", "flood", "ssp_skyline"]
