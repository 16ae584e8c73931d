"""Structural tests: topology of every cell and testbench."""

from __future__ import annotations

import pytest

from repro.sram import (
    AccessConfig,
    AsymTfet6TCell,
    CellSizing,
    Cmos6TCell,
    Tfet6TCell,
    Tfet7TCell,
)
from repro.sram.cell import TfetDeviceSet


def transistor_by_name(circuit, name):
    for t in circuit.transistors:
        if t.name == name:
            return t
    raise KeyError(name)


class TestTfet6TTopology:
    def test_six_transistors(self):
        bench = Tfet6TCell().hold_testbench(0.8)
        assert len(bench.circuit.transistors) == 6

    def test_inverters_always_forward(self):
        bench = Tfet6TCell().hold_testbench(0.8)
        c = bench.circuit
        pd = transistor_by_name(c, "m1_pd")
        assert pd.polarity == "n"
        assert pd.drain == c.index_of("q")
        assert pd.source == c.index_of("vgnd")
        pu = transistor_by_name(c, "m2_pu")
        assert pu.polarity == "p"
        assert pu.source == c.index_of("vddc")
        assert pu.drain == c.index_of("q")

    @pytest.mark.parametrize(
        "config,polarity,drain_at_bitline",
        [
            (AccessConfig.INWARD_N, "n", True),
            (AccessConfig.INWARD_P, "p", False),
            (AccessConfig.OUTWARD_N, "n", False),
            (AccessConfig.OUTWARD_P, "p", True),
        ],
    )
    def test_access_orientation(self, config, polarity, drain_at_bitline):
        bench = Tfet6TCell(access=config).hold_testbench(0.8)
        c = bench.circuit
        ax = transistor_by_name(c, "m3_ax")
        assert ax.polarity == polarity
        if drain_at_bitline:
            assert ax.drain == c.index_of("bl")
            assert ax.source == c.index_of("q")
        else:
            assert ax.drain == c.index_of("q")
            assert ax.source == c.index_of("bl")

    def test_wordline_polarity(self):
        p_cell = Tfet6TCell(access=AccessConfig.INWARD_P)
        n_cell = Tfet6TCell(access=AccessConfig.INWARD_N)
        assert p_cell.wl_active(0.8) == 0.0 and p_cell.wl_inactive(0.8) == 0.8
        assert n_cell.wl_active(0.8) == 0.8 and n_cell.wl_inactive(0.8) == 0.0

    def test_beta_scales_pulldown_width(self):
        cell = Tfet6TCell(CellSizing().with_beta(2.0))
        bench = cell.hold_testbench(0.8)
        assert transistor_by_name(bench.circuit, "m1_pd").width_um == pytest.approx(0.2)
        assert transistor_by_name(bench.circuit, "m3_ax").width_um == pytest.approx(0.1)

    def test_device_set_positions_used(self):
        devices = TfetDeviceSet.uniform(Tfet6TCell().devices.pulldown_left)
        cell = Tfet6TCell(devices=devices)
        bench = cell.hold_testbench(0.8)
        assert transistor_by_name(bench.circuit, "m1_pd").model is devices.pulldown_left

    def test_every_transistor_has_gate_caps(self):
        bench = Tfet6TCell().hold_testbench(0.8)
        names = {cap.name for cap in bench.circuit.capacitors}
        for t in ("m1_pd", "m2_pu", "m3_ax", "m6_ax"):
            assert f"{t}.cgs" in names and f"{t}.cgd" in names

    def test_storage_nodes_have_wire_caps(self):
        bench = Tfet6TCell().hold_testbench(0.8)
        names = {cap.name for cap in bench.circuit.capacitors}
        assert "q.wire" in names and "qb.wire" in names


class TestCmosTopology:
    def test_nmos_access_active_high(self):
        cell = Cmos6TCell()
        assert cell.wl_active(0.8) == 0.8
        assert cell.wl_inactive(0.8) == 0.0

    def test_pmos_pullups(self):
        bench = Cmos6TCell().hold_testbench(0.8)
        assert transistor_by_name(bench.circuit, "m2_pu").polarity == "p"


class TestAsymTopology:
    def test_mixed_access_orientation(self):
        bench = AsymTfet6TCell().hold_testbench(0.8)
        c = bench.circuit
        left = transistor_by_name(c, "m3_ax")
        right = transistor_by_name(c, "m6_ax")
        assert left.drain == c.index_of("q")  # outward (discharges q)
        assert right.drain == c.index_of("blb")  # inward (charges qb)

    def test_write_bench_has_builtin_ground_pulse(self):
        bench = AsymTfet6TCell().write_testbench(0.8, 1e-9)
        vgnd = bench.circuit.voltage_sources[bench.circuit.source_index("vgnd")]
        mid = (bench.window.t_on + bench.window.t_off) / 2
        assert vgnd.waveform.value(mid) == pytest.approx(0.24)
        assert vgnd.waveform.value(0.0) == 0.0

    def test_external_assist_rejected(self):
        from repro.sram import WRITE_ASSISTS

        with pytest.raises(ValueError, match="built-in"):
            AsymTfet6TCell().write_testbench(0.8, 1e-9, assist=WRITE_ASSISTS["vgnd_raising"])


class TestSevenTTopology:
    def test_seven_transistors(self):
        bench = Tfet7TCell().hold_testbench(0.8)
        assert len(bench.circuit.transistors) == 7

    def test_write_bitlines_grounded_in_hold(self):
        bench = Tfet7TCell().hold_testbench(0.8)
        for name in ("wbl", "wblb"):
            src = bench.circuit.voltage_sources[bench.circuit.source_index(name)]
            assert src.waveform.value(0.0) == 0.0

    def test_outward_write_access(self):
        bench = Tfet7TCell().hold_testbench(0.8)
        c = bench.circuit
        wax = transistor_by_name(c, "m3_wax")
        assert wax.drain == c.index_of("q")
        assert wax.source == c.index_of("wbl")

    def test_read_port_decoupled_from_storage(self):
        bench = Tfet7TCell().read_testbench(0.8)
        c = bench.circuit
        rd = transistor_by_name(c, "m7_rd")
        # Gate on the storage node, channel between rbl and rsl only.
        assert rd.gate == c.index_of("q")
        assert rd.drain == c.index_of("rbl")
        assert rd.source == c.index_of("rsl")

    def test_read_assist_rejected(self):
        from repro.sram import READ_ASSISTS

        with pytest.raises(ValueError):
            Tfet7TCell().read_testbench(0.8, assist=READ_ASSISTS["vgnd_lowering"])

    def test_missing_read_buffer_card_rejected(self):
        base = Tfet7TCell().devices
        incomplete = TfetDeviceSet(
            pulldown_left=base.pulldown_left,
            pulldown_right=base.pulldown_right,
            pullup_left=base.pullup_left,
            pullup_right=base.pullup_right,
            access_left=base.access_left,
            access_right=base.access_right,
            read_buffer=None,
        )
        with pytest.raises(ValueError, match="read-buffer"):
            Tfet7TCell(devices=incomplete)


class TestTestbenches:
    def test_read_bench_metadata(self):
        bench = Tfet6TCell().read_testbench(0.8)
        assert bench.read_bitline == "blb"
        assert bench.read_reference == "bl"
        assert bench.precharge_level == pytest.approx(0.8)
        assert bench.initial_conditions["q"] == 0.8
        assert bench.initial_conditions["qb"] == 0.0

    def test_write_bench_drives_bitlines(self):
        bench = Tfet6TCell().write_testbench(0.8, 1e-9)
        c = bench.circuit
        bl = c.voltage_sources[c.source_index("bl")]
        blb = c.voltage_sources[c.source_index("blb")]
        assert bl.waveform.value(1e-9) == 0.0
        assert blb.waveform.value(1e-9) == pytest.approx(0.8)

    def test_wrong_assist_kind_rejected(self):
        from repro.sram import READ_ASSISTS, WRITE_ASSISTS

        cell = Tfet6TCell()
        with pytest.raises(ValueError, match="read assist"):
            cell.write_testbench(0.8, 1e-9, assist=READ_ASSISTS["vgnd_lowering"])
        with pytest.raises(ValueError, match="write assist"):
            cell.read_testbench(0.8, assist=WRITE_ASSISTS["vgnd_raising"])

    def test_hold_state_selection(self):
        bench = Tfet6TCell().hold_testbench(0.8, stored_one=False)
        assert bench.initial_conditions["q"] == 0.0
        assert bench.initial_conditions["qb"] == 0.8

    def test_settle_stop_past_window(self):
        bench = Tfet6TCell().write_testbench(0.8, 1e-9)
        assert bench.settle_stop() > bench.window.t_off


def _source_table(bench, times):
    """Every source's name, breakpoints and sampled values."""
    return [
        (s.name, tuple(s.waveform.breakpoints()), [s.waveform.value(t) for t in times])
        for s in bench.circuit.voltage_sources
    ]


class TestWriteBenchFactory:
    """A factory bench equals a fresh ``write_testbench`` of its width."""

    TIMES = [i * 5e-12 for i in range(0, 700)]  # 0-3.5 ns, past every settle window

    @pytest.mark.parametrize("assist_name", ["none", "vdd_lowering", "vgnd_raising",
                                             "wl_lowering", "bl_raising"])
    def test_every_source_matches_a_fresh_bench(self, assist_name):
        from repro.sram import WRITE_ASSISTS

        cell = Tfet6TCell()
        assist = WRITE_ASSISTS.get(assist_name)
        factory = cell.write_bench_factory(0.8, assist=assist)
        for width in (5e-11, 1.2e-9, 5e-11):
            bench = factory(width)
            fresh = cell.write_testbench(0.8, width, assist=assist)
            assert _source_table(bench, self.TIMES) == _source_table(fresh, self.TIMES)
            assert bench.circuit.breakpoints() == fresh.circuit.breakpoints()
            assert bench.window == fresh.window
            assert bench.initial_conditions == fresh.initial_conditions

    def test_asymmetric_cell_builtin_assist_follows_the_width(self):
        cell = AsymTfet6TCell()
        factory = cell.write_bench_factory(0.8)
        for width in (5e-11, 1e-9):
            bench = factory(width)
            fresh = cell.write_testbench(0.8, width)
            assert _source_table(bench, self.TIMES) == _source_table(fresh, self.TIMES)

    def test_seven_t_cell_factory_follows_the_width(self):
        from repro.sram import WRITE_ASSISTS

        cell = Tfet7TCell()
        factory = cell.write_bench_factory(0.8)
        circuit = factory(5e-11).circuit
        for width in (5e-11, 1.2e-9, 5e-11):
            bench = factory(width)
            fresh = cell.write_testbench(0.8, width)
            assert bench.circuit is circuit
            assert _source_table(bench, self.TIMES) == _source_table(fresh, self.TIMES)
            assert bench.circuit.breakpoints() == fresh.circuit.breakpoints()
            assert bench.window == fresh.window
            assert bench.initial_conditions == fresh.initial_conditions
        with pytest.raises(ValueError, match="without assists"):
            cell.write_bench_factory(0.8, assist=WRITE_ASSISTS["vdd_lowering"])
