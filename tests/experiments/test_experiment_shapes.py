"""Reduced-size experiment runs asserting the paper's *shape* claims.

Each test runs a miniature version of one experiment (few betas / few
samples) and checks the qualitative structure the paper reports; the
full-size runs live in the benchmark harness.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    fig02_tfet_iv,
    fig04_cell_stability,
    fig06_write_assist,
    fig07_read_assist,
    fig09_wa_variation,
    fig10_ra_variation,
    fig11_delay,
    fig12_margins,
    table_area,
    table_static_power,
)


class TestFig02:
    @pytest.fixture(scope="class")
    def result(self):
        return fig02_tfet_iv.run(vgs_points=11)

    def test_anchor_currents(self, result):
        forward = result.column("nTFET fwd @vds=+1V (A/um)")
        assert forward[0] == pytest.approx(1e-17, rel=1e-3)
        assert forward[-1] == pytest.approx(1e-4, rel=1e-3)

    def test_p_and_n_symmetric(self, result):
        n = result.column("nTFET fwd @vds=+1V (A/um)")
        p = result.column("pTFET fwd @vds=-1V (A/um)")
        for a, b in zip(n, p):
            assert b == pytest.approx(-a)

    def test_gate_loses_control_at_high_reverse_bias(self, result):
        deep = result.column("nTFET rev @vds=-1V (A/um)")
        assert max(deep) / min(deep) < 1.2
        shallow = result.column("nTFET rev @vds=-0.1V (A/um)")
        assert max(shallow) / min(shallow) > 1e6


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_cell_stability.run(betas=(0.5, 1.0, 2.0))

    def test_inward_n_unwritable_everywhere(self, result):
        assert all(math.isinf(v) for v in result.column("WLcrit innTFET (ps)"))

    def test_inward_p_writable_only_at_small_beta(self, result):
        wl = result.column("WLcrit inpTFET (ps)")
        assert math.isfinite(wl[0])
        assert math.isinf(wl[-1])

    def test_cmos_flat_and_fast(self, result):
        wl = result.column("WLcrit CMOS (ps)")
        assert all(math.isfinite(v) for v in wl)
        assert max(wl) < 100.0

    def test_drnm_grows_with_beta(self, result):
        for col in ("DRNM inpTFET (mV)", "DRNM CMOS (mV)"):
            d = result.column(col)
            assert d == sorted(d)

    def test_cmos_beats_tfet_at_small_beta(self, result):
        assert result.column("DRNM CMOS (mV)")[0] > result.column("DRNM inpTFET (mV)")[0]


class TestFig06:
    @pytest.fixture(scope="class")
    def result(self):
        return fig06_write_assist.run(betas=(1.5, 3.0))

    def test_unassisted_write_fails_above_beta_one(self, result):
        assert all(math.isinf(v) for v in result.column("no assist"))

    def test_access_strengthening_best_at_low_beta(self, result):
        # At beta = 1.5 strengthening the access transistor wins.
        assert result.column("wl_lowering")[0] < result.column("vgnd_raising")[0]

    def test_rail_assist_wins_at_high_beta(self, result):
        # The paper's crossover: by beta ~ 3 the rail technique beats
        # the access-strengthening ones (which fail outright in the
        # paper and degrade past the rail curve here).
        rail = result.column("vgnd_raising")[-1]
        wl = result.column("wl_lowering")[-1]
        assert math.isinf(wl) or rail <= wl


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self):
        return fig07_read_assist.run(betas=(0.4, 0.8))

    def test_every_technique_improves_drnm(self, result):
        baseline = result.column("no assist")
        for name in ("vdd_raising", "vgnd_lowering", "wl_raising", "bl_lowering"):
            for base, assisted in zip(baseline, result.column(name)):
                assert assisted > base

    def test_vgnd_lowering_wins_at_design_beta(self, result):
        row = result.rows[-1]
        header = result.header
        best = max(
            ("vdd_raising", "vgnd_lowering", "wl_raising", "bl_lowering"),
            key=lambda n: row[header.index(n)],
        )
        assert best == "vgnd_lowering"


class TestVariationFigures:
    def test_fig09_wa_spreads_wider_than_drnm(self):
        result = fig09_wa_variation.run(samples=4, seed=1)
        spreads = {row[0]: row[4] for row in result.rows}
        assert spreads["vgnd_raising"] > spreads["(no assist)"]

    def test_fig10_drnm_variation_immune(self):
        result = fig10_ra_variation.run(samples=4, seed=1)
        for row in result.rows:
            if row[1].startswith("DRNM"):
                assert row[4] < 0.05  # spread under 5 %

    def test_fig10_ra_sized_cell_always_writable(self):
        result = fig10_ra_variation.run(samples=4, seed=2)
        wl_row = [r for r in result.rows if r[0] == "(no assist)"][0]
        assert wl_row[5] == 0  # no write failures at beta = 0.6

    def test_fig10_parallel_run_writes_no_table_cache(self, tmp_path, monkeypatch):
        """Worker pools leave nothing on disk: no device-table cache."""
        monkeypatch.chdir(tmp_path)
        result = fig10_ra_variation.run(samples=3, jobs=2)
        assert len(result.rows) == 5
        assert not any(math.isnan(row[2]) for row in result.rows)
        assert not list(tmp_path.rglob("table_cache"))
        assert not list(tmp_path.iterdir())


class TestFig11And12:
    @pytest.fixture(scope="class")
    def delays(self):
        return fig11_delay.run(vdds=(0.8,))

    @pytest.fixture(scope="class")
    def margins(self):
        return fig12_margins.run(vdds=(0.8,))

    def test_cmos_fastest_write(self, delays):
        row = delays.rows[0]
        h = delays.header
        cmos = row[h.index("write CMOS")]
        for col in ("write proposed", "write asym", "write 7T"):
            assert cmos < row[h.index(col)]

    def test_all_reads_finite(self, delays):
        row = delays.rows[0]
        for col, value in zip(delays.header[1:], row[1:]):
            assert math.isfinite(value), col

    def test_tfet_wlcrit_above_cmos(self, margins):
        row = margins.rows[0]
        h = margins.header
        assert row[h.index("WLcrit proposed")] > row[h.index("WLcrit CMOS")]
        assert row[h.index("WLcrit 7T")] > row[h.index("WLcrit CMOS")]

    def test_proposed_smallest_wlcrit_among_tfets(self, margins):
        row = margins.rows[0]
        h = margins.header
        assert row[h.index("WLcrit proposed")] < row[h.index("WLcrit 7T")]

    def test_assisted_drnm_highest(self, margins):
        row = margins.rows[0]
        h = margins.header
        proposed = row[h.index("DRNM proposed+RA")]
        assert proposed > row[h.index("DRNM asym")]
        assert proposed > row[h.index("DRNM 7T")]


class TestTables:
    def test_static_power_orders(self):
        result = table_static_power.run(vdds=(0.8,))
        row = result.rows[0]
        h = result.header
        assert row[h.index("orders: outward/inward")] > 8.0
        assert 5.0 < row[h.index("orders: CMOS/proposed")] < 8.0

    def test_asym_penalty_at_low_vdd(self):
        result = table_static_power.run(vdds=(0.5,))
        row = result.rows[0]
        orders = row[result.header.index("orders: asym/proposed")]
        assert 3.0 < orders < 5.0

    def test_area_table(self):
        result = table_area.run()
        ratios = {row[0]: row[3] for row in result.rows}
        assert 1.08 < ratios["7T TFET"] < 1.18
        assert ratios["proposed 6T inpTFET"] == pytest.approx(1.0)
