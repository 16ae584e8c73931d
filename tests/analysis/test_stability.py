"""Tests for the stability metrics (DRNM and WL_crit)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.stability import (
    ReferenceWlCritSearch,
    WlCritSearch,
    critical_wordline_pulse,
    dynamic_read_noise_margin,
)
from repro.char.designs import build_cell
from repro.sram import WRITE_ASSISTS, AccessConfig, CellSizing, Tfet6TCell


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

    def test_decisions_record_every_probe_of_the_last_search(self):
        search = ThresholdSearch(5e-10)
        factory = FakeBenchFactory(5e-10)
        search.search(factory)
        assert [w for w, _ in search.decisions] == factory.calls
        assert all(flipped == (w >= 5e-10) for w, flipped in search.decisions)
        search.threshold = 1.0  # unwritable: a new search starts a new log
        search.search(FakeBenchFactory(1.0))
        assert search.decisions == [(search.upper_bound, False)]

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


def _inward_p(beta):
    return Tfet6TCell(CellSizing().with_beta(beta), access=AccessConfig.INWARD_P)


IDENTITY_CASES = {
    # name: (cell factory, vdd, write assist)
    "proposed": (lambda: build_cell("proposed")[0], 0.7, None),
    "7t": (lambda: build_cell("7t")[0], 0.8, None),
    "outward_n": (lambda: build_cell("outward_n")[0], 0.9, None),
    "inward_p": (lambda: build_cell("inward_p", beta=0.4)[0], 0.8, None),
    "cmos": (lambda: build_cell("cmos", beta=0.4)[0], 0.8, None),
    # fig06's set-up: the rail assist pulses vgnd around every width.
    "vgnd_raising_beta2": (lambda: _inward_p(2.0), 0.8, WRITE_ASSISTS["vgnd_raising"]),
}


class TestMatchesReferenceSearch:
    """The resuming, latching search against the full-length probes."""

    @pytest.mark.parametrize("case", list(IDENTITY_CASES))
    def test_same_value_and_probe_decisions(self, case):
        make_cell, vdd, assist = IDENTITY_CASES[case]
        reference = ReferenceWlCritSearch(upper_bound=8e-9)
        search = WlCritSearch(upper_bound=8e-9)
        expected = critical_wordline_pulse(make_cell(), vdd, assist=assist, search=reference)
        value = critical_wordline_pulse(make_cell(), vdd, assist=assist, search=search)
        assert math.isfinite(expected) and len(reference.decisions) > 2
        assert value == expected
        assert search.decisions == reference.decisions

    def test_one_search_over_two_cells_matches_fresh_searches(self):
        # fig06 keeps one search for every cell and assist.  The t = 0
        # operating point is the same with and without wordline
        # lowering, so resuming across the two searches would be wrong.
        runs = [(_inward_p(1.0), None), (_inward_p(1.0), WRITE_ASSISTS["wl_lowering"])]
        shared = WlCritSearch(upper_bound=8e-9)
        for cell, assist in runs:
            fresh = WlCritSearch(upper_bound=8e-9)
            expected = critical_wordline_pulse(cell, 0.8, assist=assist, search=fresh)
            assert critical_wordline_pulse(cell, 0.8, assist=assist, search=shared) == expected
            assert shared.decisions == fresh.decisions
