"""SYNTH: clustered multi-dimensional data (Section 7.1).

The paper's synthetic collection: 1,000,000 records of dimensionality 2-10
in ``[0,1]^D``, generated around 50,000 cluster centers picked according to
a zipfian distribution with skewness 0.1.  Sizes, cluster counts and skew
are parameters here so tests and benchmarks can scale down while keeping
the same generator code path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["synth_clustered"]

_EPS = 1e-9


def _clip_unit(array: np.ndarray) -> np.ndarray:
    """Clamp into the half-open unit cube expected by zone membership."""
    return np.clip(array, 0.0, 1.0 - _EPS)


def synth_clustered(
    n: int,
    dims: int,
    *,
    clusters: int = 50_000,
    skew: float = 0.1,
    spread: float = 0.02,
    rng: np.random.Generator,
) -> np.ndarray:
    """The paper's SYNTH generator.

    Cluster centers are uniform in the domain; each record picks a center
    zipf-distributed with exponent ``skew`` (0.1 in the paper) and adds
    isotropic Gaussian noise of scale ``spread``.
    """
    if n <= 0 or dims <= 0:
        raise ValueError("n and dims must be positive")
    clusters = min(clusters, max(1, n))
    centers = rng.random((clusters, dims))
    ranks = np.arange(1, clusters + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    assignment = rng.choice(clusters, size=n, p=weights)
    points = centers[assignment] + rng.normal(0.0, spread, size=(n, dims))
    return _clip_unit(points)
