"""Tests for the Monte-Carlo engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.montecarlo import MonteCarloResult, varied_device_set
from repro.devices.library import tfet_device


class TestVariedDeviceSet:
    def test_nominal_scales_reuse_cached_card(self):
        ds = varied_device_set([1.0] * 7)
        assert ds.pulldown_left is tfet_device()
        assert ds.read_buffer is tfet_device()

    def test_positions_follow_order(self):
        scales = [0.95, 1.05, 1.0, 1.0, 1.0, 1.0, 1.0]
        ds = varied_device_set(scales)
        assert ds.pulldown_left is tfet_device(0.95)
        assert ds.pulldown_right is tfet_device(1.05)

    def test_short_scale_list_pads_with_nominal(self):
        ds = varied_device_set([0.95])
        assert ds.pulldown_left is tfet_device(0.95)
        assert ds.access_left is tfet_device()


class TestMonteCarloResult:
    def test_statistics_with_failures(self):
        samples = np.array([1.0, 2.0, 3.0, math.inf])
        r = MonteCarloResult("m", samples)
        assert r.failure_count == 1
        assert r.failure_fraction == pytest.approx(0.25)
        assert r.mean() == pytest.approx(2.0)
        assert r.std() == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_spread(self):
        r = MonteCarloResult("m", np.array([1.0, 3.0]))
        assert r.spread() == pytest.approx(0.5)

    def test_all_failures(self):
        r = MonteCarloResult("m", np.array([math.inf, math.inf]))
        assert math.isinf(r.mean())
        assert r.failure_count == 2

    def test_histogram(self):
        r = MonteCarloResult("m", np.linspace(0.0, 1.0, 100))
        counts, edges = r.histogram(bins=10)
        assert counts.sum() == 100
        assert len(edges) == 11

    def test_empty_histogram(self):
        r = MonteCarloResult("m", np.array([math.inf]))
        counts, _ = r.histogram()
        assert counts.sum() == 0


class TestYieldEstimates:
    def make(self, values):
        return MonteCarloResult("m", np.asarray(values, dtype=float))

    def test_yield_below_counts_finite_passes(self):
        r = self.make([1.0, 2.0, 3.0, math.inf])
        assert r.yield_below(2.5) == pytest.approx(0.5)

    def test_yield_above(self):
        r = self.make([0.1, 0.5, 0.9])
        assert r.yield_above(0.4) == pytest.approx(2 / 3)

    def test_failures_count_against_yield(self):
        r = self.make([1.0, math.inf])
        assert r.yield_below(10.0) == pytest.approx(0.5)
        assert r.yield_above(0.0) == pytest.approx(0.5)

    def test_gaussian_yield_matches_empirical_for_large_sample(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(1.0, 0.1, 4000)
        r = self.make(samples)
        assert r.gaussian_yield_below(1.1) == pytest.approx(r.yield_below(1.1), abs=0.02)

    def test_gaussian_yield_scales_with_failures(self):
        samples = np.array([1.0, 1.01, 0.99, math.inf])
        r = self.make(samples)
        assert r.gaussian_yield_below(5.0) == pytest.approx(0.75, abs=0.01)

    def test_gaussian_yield_nan_for_tiny_sample(self):
        assert math.isnan(self.make([1.0]).gaussian_yield_below(2.0))

    def test_gaussian_yield_nan_for_empty_samples(self):
        assert math.isnan(self.make([]).gaussian_yield_below(2.0))

    def test_gaussian_yield_nan_when_no_finite_samples(self):
        r = self.make([math.inf, math.nan, math.inf])
        assert math.isnan(r.gaussian_yield_below(2.0))

    def test_gaussian_yield_degenerate_spread_is_step_function(self):
        # All finite samples identical: the clamped-std fit degenerates
        # to a step at the common value (documented contract).
        r = self.make([1.0, 1.0, 1.0])
        assert r.gaussian_yield_below(0.5) == pytest.approx(0.0)
        assert r.gaussian_yield_below(1.0) == pytest.approx(0.5)
        assert r.gaussian_yield_below(1.5) == pytest.approx(1.0)

    def test_gaussian_yield_degenerate_spread_scales_with_failures(self):
        r = self.make([1.0, 1.0, math.inf, math.inf])
        assert r.gaussian_yield_below(2.0) == pytest.approx(0.5)

    def test_counting_yields_nan_for_empty_samples(self):
        r = self.make([])
        assert math.isnan(r.yield_below(1.0))
        assert math.isnan(r.yield_above(1.0))
        assert r.failure_fraction == 0.0
