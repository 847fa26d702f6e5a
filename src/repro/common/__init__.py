"""Shared substrate: geometry, scoring, storage, deterministic hashing."""

from .geometry import (Frustum, Interval, Point, Rect, dominates, maxdist,
                       mindist, minkowski_distance)
from .hashing import mix, path_key
from .scoring import LinearScore, NearestScore, ScoringFunction
from .store import LocalStore

__all__ = [
    "Frustum", "Interval", "LinearScore", "LocalStore", "NearestScore",
    "Point", "Rect", "ScoringFunction", "dominates", "maxdist", "mindist",
    "minkowski_distance", "mix", "path_key",
]
