"""Audit behaviour: silent on correct results, loud on injected bugs.

The green-path tests run real solves under a fully enabled session and
require zero violations; the red-path tests hand each audit a
deliberately corrupted result (a stale charge cache, a perturbed
residual, a tampered coefficient block) and require the matching
:class:`VerificationError` kind.  Detection tests are what make the
subsystem trustworthy: an audit that never fires proves nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.dcop import solve_dc
from repro.circuit.mna import MnaSystem, TransientState
from repro.circuit.netlist import Circuit
from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD
from repro.circuit.transient import simulate_transient
from repro.circuit.waveforms import Pulse
from repro.devices.tables import CubicTable2D, UniformGrid
from repro.experiments.designs import proposed_cell, proposed_read_assist
from repro.sram.array import ArrayGeometry
from repro.sram.compiler import compile_array, measure_array
from repro.verify import (
    VerificationError,
    VerifyOptions,
    VerifySession,
    audit_newton_solution,
    audit_table,
    audit_transient_step,
    enabled,
)


@pytest.fixture
def inverter(tfet):
    c = Circuit("inv")
    c.add_voltage_source("vdd", "vdd", "0", 0.7)
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 0.7, t_start=5e-11, width=1.5e-10, t_edge=2e-11)
    )
    c.add_transistor("mp", "out", "in", "vdd", tfet, polarity="p", width_um=0.2)
    c.add_transistor("mn", "out", "in", "0", tfet, polarity="n", width_um=0.1)
    c.add_capacitor("out", "0", 1e-16, name="cl")
    return c


ALL_AUDITS = VerifyOptions(table_interval=8, jacobian_audit=True, jacobian_interval=4)


class TestGreenPath:
    def test_full_solve_chain_is_clean(self, inverter):
        with enabled(ALL_AUDITS) as session:
            solve_dc(inverter)
            simulate_transient(inverter, 3e-10)
        assert session.violation_count == 0
        for kind in ("kcl", "equivalence", "charge", "table", "jacobian"):
            assert session.audits.get(kind, 0) > 0, f"{kind} audit never ran"

    def test_sparse_array_path_is_clean_under_jacobian_audit(self):
        """The Jacobian audit densifies a sparse system's CSC Jacobian."""
        compiled = compile_array(
            proposed_cell(), ArrayGeometry(rows=8, columns=4), 0.8,
            scenario="read", assist=proposed_read_assist(),
        )
        assert compiled.unknown_count >= DEFAULT_SPARSE_THRESHOLD
        options = VerifyOptions(jacobian_audit=True, jacobian_interval=64)
        with enabled(options) as session:
            measure_array(compiled)
        assert session.violation_count == 0
        assert session.audits.get("jacobian", 0) > 0

    def test_disabled_session_audits_nothing(self, inverter):
        with enabled() as outer:
            pass  # session closed again: nothing active below
        solve_dc(inverter)
        assert outer.audits == {}

    def test_correct_transient_step_passes(self, inverter):
        session = VerifySession()
        system = MnaSystem(inverter)
        x = solve_dc(inverter).x
        q = system.capacitor_charges(x)
        state = TransientState(1e-12, q.copy(), np.zeros_like(q), "backward_euler")
        audit_transient_step(session, system, x, x, state, q, np.zeros_like(q))
        assert session.violation_count == 0


class TestDetection:
    def test_non_solution_trips_kcl(self, inverter):
        session = VerifySession()
        system = MnaSystem(inverter)
        x_bad = solve_dc(inverter).x + 0.05
        with pytest.raises(VerificationError) as err:
            audit_newton_solution(
                session, system, x_bad, 0.0, gmin=1e-12, transient=None,
                clamps=(), source_scale=1.0, residual_tolerance=1e-10,
            )
        assert err.value.kind == "kcl"
        assert err.value.detail["max_residual"] > err.value.detail["limit"]

    def test_perturbed_optimized_residual_trips_equivalence(self, inverter):
        # The accepted point satisfies reference KCL, but the "optimized"
        # assembler disagrees with the reference — an assembly bug, not
        # an acceptance bug, and the audit must say which.
        system = MnaSystem(inverter)
        x = solve_dc(inverter).x

        class CorruptedAssembly:
            circuit = inverter
            _topology = system._topology

            def assemble_residual(self, *args, **kwargs):
                f = system.assemble_residual(*args, **kwargs).copy()
                f[0] += 1e-6
                return f

        session = VerifySession()
        with pytest.raises(VerificationError) as err:
            audit_newton_solution(
                session, CorruptedAssembly(), x, 0.0, gmin=1e-12, transient=None,
                clamps=(), source_scale=1.0, residual_tolerance=1e-10,
            )
        assert err.value.kind == "equivalence"

    def test_stale_previous_charges_trip_charge_audit(self, inverter):
        # The classic stale-cache bug: the integrator's stored previous
        # charges no longer match q(x_prev), silently injecting charge.
        session = VerifySession()
        system = MnaSystem(inverter)
        x = solve_dc(inverter).x
        q = system.capacitor_charges(x)
        stale = q + 1e-18
        state = TransientState(1e-12, stale, np.zeros_like(q), "backward_euler")
        with pytest.raises(VerificationError) as err:
            audit_transient_step(session, system, x, x, state, q, np.zeros_like(q))
        assert err.value.kind == "charge"

    def test_wrong_new_charges_trip_charge_audit(self, inverter):
        session = VerifySession()
        system = MnaSystem(inverter)
        x = solve_dc(inverter).x
        q = system.capacitor_charges(x)
        state = TransientState(1e-12, q.copy(), np.zeros_like(q), "backward_euler")
        with pytest.raises(VerificationError) as err:
            audit_transient_step(
                session, system, x, x, state, q + 1e-18, np.zeros_like(q)
            )
        assert err.value.kind == "charge"

    def test_tampered_coefficients_trip_table_audit(self):
        grid = UniformGrid(0.0, 1.0, 8)
        xs, ys = np.meshgrid(grid.points(), grid.points(), indexing="ij")
        table = CubicTable2D(grid, grid, np.sin(xs) * np.cos(2.0 * ys))
        x = np.array([0.37, 0.61])
        y = np.array([0.53, 0.12])
        session = VerifySession()
        audit_table(session, table, x, y)  # pristine table: clean
        assert session.violation_count == 0
        table._coeffs[:, 0, 0] += 1e-5
        with pytest.raises(VerificationError) as err:
            audit_table(session, table, x, y)
        assert err.value.kind == "table"


class TestSessionMechanics:
    def test_collection_mode_accumulates_without_raising(self, inverter):
        session = VerifySession(VerifyOptions(raise_on_violation=False))
        system = MnaSystem(inverter)
        x = solve_dc(inverter).x
        q = system.capacitor_charges(x)
        state = TransientState(1e-12, q + 1e-18, np.zeros_like(q), "backward_euler")
        audit_transient_step(session, system, x, x, state, q, np.zeros_like(q))
        assert session.violation_count >= 1
        assert session.violations[0]["kind"] == "charge"
        snap = session.snapshot()
        assert snap["violation_count"] == session.violation_count

    def test_max_violations_bounds_the_log_not_the_count(self):
        session = VerifySession(
            VerifyOptions(raise_on_violation=False, max_violations=3)
        )
        for k in range(10):
            session.record_violation("kcl", f"violation {k}")
        assert session.violation_count == 10
        assert len(session.violations) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"kcl_margin": 0.5},
            {"table_interval": 0},
            {"jacobian_interval": 0},
            {"charge_tolerance": -1.0},
            {"jacobian_step": 0.0},
        ],
    )
    def test_invalid_options_rejected(self, bad):
        with pytest.raises(ValueError):
            VerifyOptions(**bad)

    def test_reference_cache_tracks_recompilation(self, inverter, tfet):
        session = VerifySession()
        system = MnaSystem(inverter)
        first = session.reference_for(system)
        assert session.reference_for(system) is first
        inverter.add_capacitor("in", "0", 1e-17, name="cg")
        system.invalidate_caches()
        assert session.reference_for(system) is not first
