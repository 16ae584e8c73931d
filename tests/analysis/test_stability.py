"""Tests for the stability metrics (DRNM and WL_crit)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.stability import (
    WlCritSearch,
    critical_wordline_pulse,
    dynamic_read_noise_margin,
)
from repro.sram import AccessConfig, CellSizing, Tfet6TCell


class FakeBenchFactory:
    """Synthetic write: flips iff the pulse is at least ``threshold``."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.calls = []

    def __call__(self, width):
        self.calls.append(width)
        return width


class ThresholdSearch(WlCritSearch):
    """WlCritSearch with the simulation replaced by a width threshold."""

    def __init__(self, threshold, **kwargs):
        super().__init__(**kwargs)
        self.threshold = threshold

    def _flips_gen(self, bench_factory, width):
        bench_factory(width)
        return width >= self.threshold
        yield  # pragma: no cover - makes this a generator


class TestWlCritSearch:
    def test_finds_threshold(self):
        factory = FakeBenchFactory(3.3e-10)
        search = ThresholdSearch(3.3e-10)
        result = search.search(factory)
        assert result == pytest.approx(3.3e-10, rel=0.03)

    def test_infinite_when_upper_bound_fails(self):
        factory = FakeBenchFactory(1.0)
        search = ThresholdSearch(1.0, upper_bound=4e-9)
        assert math.isinf(search.search(factory))

    def test_lower_bound_returned_when_everything_flips(self):
        search = ThresholdSearch(0.0, lower_bound=1e-12)
        assert search.search(FakeBenchFactory(0.0)) == 1e-12

    def test_result_always_flips_and_is_conservative(self):
        threshold = 7.7e-10
        search = ThresholdSearch(threshold)
        result = search.search(FakeBenchFactory(threshold))
        assert result >= threshold

    def test_bisection_is_logarithmic(self):
        factory = FakeBenchFactory(5e-10)
        search = ThresholdSearch(5e-10, relative_tolerance=0.02)
        search.search(factory)
        # 3.6 decades at 2 % tolerance: well under 25 evaluations.
        assert len(factory.calls) < 25

    def test_validation(self):
        with pytest.raises(ValueError):
            WlCritSearch(lower_bound=1e-9, upper_bound=1e-10)
        with pytest.raises(ValueError):
            WlCritSearch(relative_tolerance=0.0)


class TestOnRealCell:
    @pytest.fixture(scope="class")
    def cell(self):
        return Tfet6TCell(CellSizing().with_beta(0.5), access=AccessConfig.INWARD_P)

    def test_wlcrit_consistent_with_direct_simulation(self, cell):
        from repro.analysis.stability import write_flips_cell

        wl = critical_wordline_pulse(cell, 0.8)
        assert math.isfinite(wl)
        assert write_flips_cell(cell.write_testbench(0.8, 1.1 * wl))
        assert not write_flips_cell(cell.write_testbench(0.8, 0.8 * wl))

    def test_drnm_requires_read_bench(self, cell):
        with pytest.raises(ValueError, match="read"):
            dynamic_read_noise_margin(cell.write_testbench(0.8, 1e-9))

    def test_drnm_bounded_by_supply(self, cell):
        drnm = dynamic_read_noise_margin(cell.read_testbench(0.8))
        assert 0.0 < drnm < 0.8 + 1e-6
