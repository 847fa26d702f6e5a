"""Unit tests for the dataset generators."""

import numpy as np
import pytest

from repro.data.mirflickr import MIRFLICKR_DIMS, mirflickr_dataset
from repro.data.nba import NBA_ATTRIBUTES, nba_dataset, to_minimization
from repro.data.synth import synth_clustered


def rng():
    return np.random.default_rng(7)


class TestNBA:
    def test_shape_and_range(self):
        data = nba_dataset(rng(), 5000)
        assert data.shape == (5000, len(NBA_ATTRIBUTES))
        assert data.min() >= 0.0 and data.max() < 1.0

    def test_deterministic(self):
        assert np.array_equal(nba_dataset(np.random.default_rng(3), 100),
                              nba_dataset(np.random.default_rng(3), 100))

    def test_positive_cross_correlation(self):
        """The latent quality factor couples the attributes."""
        data = nba_dataset(rng(), 20000)
        corr = np.corrcoef(data[:, 0], data[:, 5])[0, 1]
        assert corr > 0.2

    def test_heavy_tail(self):
        """Stars exist: the top score is far above the median."""
        data = nba_dataset(rng(), 20000)
        sums = data.sum(axis=1)
        assert sums.max() > 2.5 * np.median(sums)

    def test_to_minimization_flips(self):
        data = nba_dataset(rng(), 100)
        flipped = to_minimization(data)
        assert np.allclose(flipped, np.clip(1.0 - data, 0, 1 - 1e-9))
        assert flipped.max() < 1.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            nba_dataset(rng(), 0)


class TestMirflickr:
    def test_shape_and_range(self):
        data = mirflickr_dataset(rng(), 3000)
        assert data.shape == (3000, MIRFLICKR_DIMS)
        assert data.min() >= 0.0 and data.max() < 1.0

    def test_rows_bounded_like_histograms(self):
        data = mirflickr_dataset(rng(), 3000)
        assert (data.sum(axis=1) <= 1.0 + 1e-9).all()

    def test_clustered(self):
        """Styles create structure: near neighbors are much closer than
        random pairs."""
        data = mirflickr_dataset(rng(), 2000, styles=10)
        sample = data[:200]
        d = np.abs(sample[:, None, :] - sample[None, :, :]).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min(axis=1).mean() < 0.3 * d[np.isfinite(d)].mean()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            mirflickr_dataset(rng(), -1)


class TestSynth:
    def test_shape_and_range(self):
        data = synth_clustered(4000, 5, clusters=100, rng=rng())
        assert data.shape == (4000, 5)
        assert data.min() >= 0.0 and data.max() < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_clustered(0, 3, rng=rng())

    def test_zipf_skew_concentrates(self):
        """Higher skew concentrates records in fewer clusters."""
        flat = synth_clustered(5000, 2, clusters=50, skew=0.0, rng=rng())
        skewed = synth_clustered(5000, 2, clusters=50, skew=2.0, rng=rng())

        def occupancy(data):
            hist, *_ = np.histogram2d(data[:, 0], data[:, 1], bins=10)
            return (hist > 0).sum()

        assert occupancy(skewed) <= occupancy(flat)
