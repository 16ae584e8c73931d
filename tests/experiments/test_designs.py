"""Tests for the Section-5 design definitions and the public API surface."""

from __future__ import annotations

import pytest

from repro.experiments.designs import (
    PROPOSED_BETA,
    asym_cell,
    cmos_cell,
    proposed_cell,
    proposed_read_assist,
    seven_t_cell,
)


class TestDesigns:
    def test_proposed_design_point(self):
        cell = proposed_cell()
        assert cell.sizing.beta == pytest.approx(PROPOSED_BETA)
        assert cell.access.value == "inward_p"

    def test_proposed_assist_is_the_paper_winner(self):
        assist = proposed_read_assist()
        assert assist.name == "vgnd_lowering"
        assert assist.kind == "read"
        assert assist.fraction == 0.3

    def test_cells_are_fresh_instances(self):
        assert proposed_cell() is not proposed_cell()

    def test_seven_t_default_sizing_writes(self):
        cell = seven_t_cell()
        # Wide write access vs weak pull-up: the outward-write contest.
        assert cell.sizing.access_width > cell.sizing.pullup_width

    def test_asym_access_narrow(self):
        assert asym_cell().sizing.access_width < cmos_cell().sizing.access_width


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_analysis_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_circuit_exports(self):
        import repro.circuit as circuit

        for name in circuit.__all__:
            assert hasattr(circuit, name), name

    def test_quickstart_docstring_snippet_runs(self):
        from repro import AccessConfig, CellSizing, Tfet6TCell
        from repro.analysis import dynamic_read_noise_margin

        cell = Tfet6TCell(CellSizing().with_beta(0.6), AccessConfig.INWARD_P)
        drnm = dynamic_read_noise_margin(cell.read_testbench(0.8))
        assert 0.4 < drnm < 0.8
