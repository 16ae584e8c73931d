"""Tests for the hierarchical array compiler (repro.sram.compiler)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit.sparse import (
    DEFAULT_SPARSE_THRESHOLD,
    SparseMnaSystem,
    make_system,
)
from repro.devices.charges import LinearCharge
from repro.sram import READ_ASSISTS, WRITE_ASSISTS, AccessConfig, CellSizing, Tfet6TCell
from repro.sram.array import ArrayGeometry, _BitlineScaledCell
from repro.sram.cell import JUNCTION_CAP_PER_UM
from repro.sram.compiler import (
    CompileOptions,
    compare_array,
    compile_array,
    instantiate_cell,
    measure_array,
    run_array_sweep,
    sweep_points,
)
from repro.sram.compiler.bitline import bitline_ladder

VDD = 0.8


@pytest.fixture(scope="module")
def proposed():
    return Tfet6TCell(CellSizing().with_beta(0.6), access=AccessConfig.INWARD_P)


@pytest.fixture(scope="module")
def small_read(proposed):
    """One compiled+measured small read path, shared across tests."""
    compiled = compile_array(proposed, ArrayGeometry(4, 2), VDD)
    return compiled, measure_array(compiled)


class TestBitlineLadder:
    def test_geometry_capacitance_derives_from_ladder(self):
        # Satellite: ArrayGeometry.bitline_capacitance and the compiler
        # ladder share one source of truth — the per-segment values.
        g = ArrayGeometry(64, 8)
        ladder = g.bitline_ladder()
        assert g.bitline_capacitance == pytest.approx(ladder.total_capacitance)
        assert ladder.total_capacitance == pytest.approx(
            g.fixed_bitline_cap + 64 * g.cell_bitline_cap
        )

    def test_explicit_rows_preserve_total(self):
        g = ArrayGeometry(16, 4)
        plain = g.bitline_ladder()
        delegated = g.bitline_ladder(
            explicit_rows=(13, 14, 15), explicit_cell_cap=4e-17
        )
        assert delegated.total_capacitance == pytest.approx(
            plain.total_capacitance
        )
        # The delegated charge moved out of the ladder taps...
        assert sum(delegated.segment_caps) == pytest.approx(
            sum(plain.segment_caps) - 3 * 4e-17
        )
        # ...and is accounted as explicit (instantiated-cell) charge.
        assert sum(delegated.explicit_caps) == pytest.approx(3 * 4e-17)

    def test_delegation_clamped_to_tap_value(self):
        ladder = bitline_ladder(
            4, cell_cap=1e-16, fixed_cap=0.0,
            explicit_rows=(3,), explicit_cell_cap=5e-16,
        )
        assert ladder.segment_caps[3] == 0.0
        assert ladder.total_capacitance == pytest.approx(4e-16)

    def test_resistance_and_elmore(self):
        g = ArrayGeometry(64, 8, bitline_res_per_cell=2.0)
        ladder = g.bitline_ladder()
        assert ladder.total_resistance == pytest.approx(128.0)
        assert ladder.elmore_delay > 0.0
        assert (
            ArrayGeometry(256, 8).bitline_ladder().elmore_delay
            > ladder.elmore_delay
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="rows"):
            bitline_ladder(0, 1e-16, 1e-15)
        with pytest.raises(ValueError, match="row"):
            bitline_ladder(4, 1e-16, 1e-15, explicit_rows=(7,))
        with pytest.raises(ValueError, match="negative"):
            bitline_ladder(4, -1e-16, 1e-15)


class TestInstance:
    def test_canonical_nodes_mapped_and_prefixed(self, proposed):
        from repro.circuit.netlist import Circuit

        circuit = Circuit("composition")
        nodes = instantiate_cell(
            circuit, proposed, prefix="c0_",
            node_map={"bl": "col_bl", "blb": "col_blb", "wl": "row_wl"},
        )
        assert nodes["bl"] == "col_bl" and nodes["wl"] == "row_wl"
        assert nodes["q"] == "c0_q" and nodes["vddc"] == "c0_vddc"
        names = set(circuit.node_names)
        assert {"col_bl", "col_blb", "row_wl", "c0_q", "c0_qb"} <= names
        # No leaked canonical names.
        assert not {"q", "qb", "bl", "blb", "wl"} & names

    def test_two_instances_double_the_devices(self, proposed):
        from repro.circuit.netlist import Circuit

        single = Circuit("one")
        instantiate_cell(single, proposed, prefix="a_", node_map={})
        double = Circuit("two")
        instantiate_cell(double, proposed, prefix="a_", node_map={})
        instantiate_cell(double, proposed, prefix="b_", node_map={})
        assert len(double.transistors) == 2 * len(single.transistors)
        assert len(double.capacitors) == 2 * len(single.capacitors)


class TestCompile:
    def test_composed_netlist_crosses_sparse_threshold(self, proposed):
        # Satellite: compiled netlists (>= 64 unknowns) auto-select the
        # sparse MNA assembler through make_system.
        compiled = compile_array(proposed, ArrayGeometry(16, 4), VDD)
        assert compiled.unknown_count >= DEFAULT_SPARSE_THRESHOLD
        assert isinstance(make_system(compiled.circuit), SparseMnaSystem)

    def test_sparse_selection_counter_increments(self, proposed):
        from repro.telemetry import core as telemetry

        compiled = compile_array(proposed, ArrayGeometry(16, 4), VDD)
        with telemetry.enabled() as session:
            make_system(compiled.circuit)
        assert session.counters.get("mna.sparse_selected", 0) >= 1

    def test_ladder_total_matches_analytic_lumped_value(self, proposed):
        geometry = ArrayGeometry(16, 4)
        compiled = compile_array(proposed, geometry, VDD)
        assert compiled.ladder.total_capacitance == pytest.approx(
            geometry.bitline_capacitance
        )
        junction = JUNCTION_CAP_PER_UM * proposed.sizing.access_width
        n_explicit = int(compiled.bench.notes["n_explicit"])
        assert sum(compiled.ladder.explicit_caps) == pytest.approx(
            (n_explicit + 1) * junction
        )

    def test_probes_and_victim(self, proposed):
        compiled = compile_array(proposed, ArrayGeometry(4, 2), VDD)
        for probe in ("wl_far", "bl_near", "blb_near", "q", "qb", "hs_q"):
            assert probe in compiled.probes
        single_column = compile_array(proposed, ArrayGeometry(4, 1), VDD)
        assert "hs_q" not in single_column.probes

    def test_scenario_and_cell_validation(self, proposed):
        from repro.experiments.designs import seven_t_cell

        with pytest.raises(ValueError, match="scenario"):
            compile_array(proposed, ArrayGeometry(4, 2), VDD, scenario="erase")
        with pytest.raises(NotImplementedError, match="7T"):
            compile_array(seven_t_cell(), ArrayGeometry(4, 2), VDD)
        with pytest.raises(TypeError, match="_build_core"):
            compile_array(object(), ArrayGeometry(4, 2), VDD)

    def test_assist_kind_checked(self, proposed):
        read_assist = READ_ASSISTS["vgnd_lowering"]
        write_assist = WRITE_ASSISTS["vdd_lowering"]
        with pytest.raises(ValueError, match="read assist"):
            compile_array(
                proposed, ArrayGeometry(4, 2), VDD,
                scenario="write", assist=read_assist,
            )
        with pytest.raises(ValueError, match="write assist"):
            compile_array(
                proposed, ArrayGeometry(4, 2), VDD,
                scenario="read", assist=write_assist,
            )

    def test_options_validation(self):
        with pytest.raises(ValueError, match="sense"):
            CompileOptions(sense="psychic")
        with pytest.raises(ValueError, match="neighbours"):
            CompileOptions(explicit_neighbours=-1)


class TestMeasure:
    def test_read_completes_with_ordered_delays(self, small_read):
        compiled, m = small_read
        assert m.completed
        assert 0.0 < m.wordline_delay < m.access_delay
        assert m.unknowns == compiled.unknown_count
        assert m.sparse_engaged == (m.unknowns >= DEFAULT_SPARSE_THRESHOLD)

    def test_read_energy_positive_and_cell_share_smaller(self, small_read):
        _, m = small_read
        assert m.energy > 0.0
        assert 0.0 < m.cell_energy < m.energy

    def test_sense_amp_resolves(self, small_read):
        _, m = small_read
        assert math.isfinite(m.resolved_delay)
        assert m.resolved_delay > m.access_delay

    def test_write_flips_the_far_cell(self, proposed):
        compiled = compile_array(
            proposed, ArrayGeometry(4, 2), VDD, scenario="write"
        )
        m = measure_array(compiled)
        assert m.completed
        assert math.isnan(m.resolved_delay)

    def test_half_select_victim_holds(self, proposed):
        compiled = compile_array(
            proposed, ArrayGeometry(4, 2), VDD, scenario="half_select"
        )
        m = measure_array(compiled)
        assert math.isfinite(m.disturb_margin)
        assert m.disturb_margin > 0.1
        assert not m.victim_flipped


class TestCompare:
    def test_dual_source_agreement(self, proposed):
        comp = compare_array(
            proposed, ArrayGeometry(8, 4), VDD,
            assist=READ_ASSISTS["vgnd_lowering"],
        )
        # Loose structural bounds; the documented tolerances live in
        # ext_array_read/ext_array_area and scripts/array_smoke.py.
        assert 0.4 < comp.delay_ratio < 1.6
        assert comp.energy_ratio > 0.0
        assert comp.area_ratio > 0.0
        assert comp.measurement is not None
        assert comp.measurement.scenario == "read"


class TestBitlineScaledCell:
    def test_attribute_forwarding(self, proposed):
        proxy = _BitlineScaledCell(proposed, 9e-15)
        assert proxy.name == proposed.name
        assert proxy.sizing is proposed.sizing
        assert proxy.wl_active(VDD) == proposed.wl_active(VDD)
        with pytest.raises(AttributeError):
            proxy.not_a_cell_attribute

    @staticmethod
    def _bitline_caps(bench) -> dict[str, float]:
        return {
            c.name: c.charge.capacitance_farads
            for c in bench.circuit.capacitors
            if c.name in ("cbl", "cblb") and isinstance(c.charge, LinearCharge)
        }

    def test_read_testbench_carries_scaled_bitline(self, proposed):
        proxy = _BitlineScaledCell(proposed, 9e-15)
        caps = self._bitline_caps(proxy.read_testbench(VDD))
        assert caps == {"cbl": 9e-15, "cblb": 9e-15}

    def test_explicit_kwarg_wins_over_proxy_default(self, proposed):
        proxy = _BitlineScaledCell(proposed, 9e-15)
        caps = self._bitline_caps(
            proxy.read_testbench(VDD, bitline_capacitance=3e-15)
        )
        assert caps == {"cbl": 3e-15, "cblb": 3e-15}

    def test_fixed_load_cell_fallback(self):
        class FixedLoadCell:
            def read_testbench(self, vdd, assist=None, duration=1e-9):
                return ("fixed", vdd)

        proxy = _BitlineScaledCell(FixedLoadCell(), 9e-15)
        assert proxy.read_testbench(VDD) == ("fixed", VDD)


class TestVerifyComposition:
    def test_compiled_deck_passes_verify_audits(self, proposed):
        # Satellite: compiled decks run under the repro.verify session —
        # every converged Newton solve is KCL- and equivalence-audited.
        from repro.verify import core as verify

        compiled = compile_array(
            proposed, ArrayGeometry(4, 2), VDD,
            options=CompileOptions(sense="none"),
        )
        with verify.enabled() as session:
            measure_array(compiled)
        assert session.audits.get("kcl", 0) > 0
        assert session.audits.get("equivalence", 0) > 0
        assert session.violations == []

    def test_fuzz_style_assembly_check(self, proposed):
        # The differential fuzzer's assembly check (optimized vs
        # reference MNA at randomized probe vectors) on a composed deck.
        from repro.verify.fuzz import _check_assembly

        compiled = compile_array(proposed, ArrayGeometry(4, 2), VDD)
        failure = _check_assembly(compiled.circuit, np.random.default_rng(0))
        assert failure is None


class TestSweep:
    def test_sweep_points_validates_design(self):
        with pytest.raises(ValueError, match="design"):
            sweep_points((4,), 2, VDD, design="flash")

    def test_serial_sweep_measures_each_geometry(self):
        results, report = run_array_sweep((4,), columns=2, vdd=VDD)
        assert report.ok_count == 1
        (m,) = results
        assert m["design"] == "proposed"
        assert m["rows"] == 4
        assert math.isfinite(m["access_delay"])
