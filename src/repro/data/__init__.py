"""Dataset generators standing in for the paper's collections."""

from .mirflickr import MIRFLICKR_DIMS, mirflickr_dataset
from .nba import NBA_ATTRIBUTES, NBA_SIZE, nba_dataset, to_minimization
from .synth import synth_clustered

__all__ = [
    "MIRFLICKR_DIMS", "NBA_ATTRIBUTES", "NBA_SIZE", "mirflickr_dataset",
    "nba_dataset", "synth_clustered", "to_minimization",
]
