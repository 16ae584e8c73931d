"""Fallback-escalation and forensics tests for the DC solver.

The escalation ladder (warm start -> cold start -> gmin stepping ->
source stepping) is exercised deterministically by gating the real
``newton_gen`` so that only chosen call shapes succeed, and the tier
that finally converged is asserted through telemetry counters — the
same signal ``repro diag`` reads from run manifests.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.circuit.dcop as dcop
from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.transient import simulate_transient
from repro.telemetry import core as telemetry


@pytest.fixture(autouse=True)
def _no_leaked_session():
    telemetry.disable()
    yield
    telemetry.disable()


def divider():
    c = Circuit()
    c.add_voltage_source("v1", "in", "0", 1.0)
    c.add_resistor("in", "mid", 1e3)
    c.add_resistor("mid", "0", 3e3)
    return c


REAL_NEWTON = dcop.newton_gen


class TestTierTelemetry:
    def test_warm_start_tier(self):
        with telemetry.enabled() as tel:
            op = dcop.solve_dc(divider(), initial_guess={"mid": 0.7})
        assert op.voltage("mid") == pytest.approx(0.75, rel=1e-6)
        assert tel.counters["dcop.converged.warm_start"] == 1
        assert tel.counters["dcop.solves"] == 1

    def test_cold_start_tier_without_guess(self):
        with telemetry.enabled() as tel:
            dcop.solve_dc(divider())
        assert tel.counters["dcop.converged.cold_start"] == 1

    def test_cold_start_tier_after_warm_failure(self, monkeypatch):
        def gated(system, x0, t, options, **kwargs):
            if np.any(x0 != 0.0) and kwargs.get("extra_gmin", 0.0) == 0.0:
                raise dcop.ConvergenceError("forced warm-start failure")
            return (yield from REAL_NEWTON(system, x0, t, options, **kwargs))

        monkeypatch.setattr(dcop, "newton_gen", gated)
        with telemetry.enabled() as tel:
            op = dcop.solve_dc(divider(), initial_guess={"mid": 0.7})
        assert op.voltage("mid") == pytest.approx(0.75, rel=1e-6)
        assert tel.counters["dcop.converged.cold_start"] == 1
        assert "dcop.converged.warm_start" not in tel.counters

    def test_gmin_stepping_tier(self, monkeypatch):
        seen_gmin = {"yes": False}

        def gated(system, x0, t, options, **kwargs):
            if kwargs.get("extra_gmin", 0.0) > 0.0:
                seen_gmin["yes"] = True
            elif not seen_gmin["yes"]:
                raise dcop.ConvergenceError("forced plain-Newton failure")
            return (yield from REAL_NEWTON(system, x0, t, options, **kwargs))

        monkeypatch.setattr(dcop, "newton_gen", gated)
        with telemetry.enabled() as tel:
            op = dcop.solve_dc(divider())
        assert op.voltage("mid") == pytest.approx(0.75, rel=1e-6)
        assert tel.counters["dcop.converged.gmin_stepping"] == 1
        assert tel.counters.get("dcop.converged.cold_start", 0) == 0

    def test_source_stepping_tier(self, monkeypatch):
        seen_ramp = {"yes": False}

        def gated(system, x0, t, options, **kwargs):
            if kwargs.get("source_scale", 1.0) < 1.0:
                seen_ramp["yes"] = True
            elif kwargs.get("extra_gmin", 0.0) > 0.0 or not seen_ramp["yes"]:
                raise dcop.ConvergenceError("forced failure outside the ramp")
            return (yield from REAL_NEWTON(system, x0, t, options, **kwargs))

        monkeypatch.setattr(dcop, "newton_gen", gated)
        with telemetry.enabled() as tel:
            op = dcop.solve_dc(divider())
        assert op.voltage("mid") == pytest.approx(0.75, rel=1e-6)
        assert tel.counters["dcop.converged.source_stepping"] == 1

    def test_total_failure_reports_tier_in_forensics(self, monkeypatch):
        def always_fail(system, x0, t, options, **kwargs):
            raise dcop.ConvergenceError(
                "forced", forensics={"last_dv": 1.0, "max_residual": 2.0}
            )
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(dcop, "newton_gen", always_fail)
        with telemetry.enabled() as tel:
            with pytest.raises(dcop.ConvergenceError) as excinfo:
                dcop.solve_dc(divider())
        assert excinfo.value.forensics["fallback_tier"] == "source_stepping"
        assert "fallback_tier=source_stepping" in str(excinfo.value)
        assert tel.counters["dcop.failures"] == 1
        assert tel.counters.get("dcop.converged.cold_start", 0) == 0

    def test_initial_conditions_alone_are_no_guess(self):
        """A transient's t = 0 solve seeded only by its initial
        conditions counts as a cold start, though its seed is non-zero;
        an operating-point guess beside them makes it a warm start."""
        circuit = divider()
        circuit.add_capacitor("mid", "0", 1e-15)
        with telemetry.enabled() as tel:
            simulate_transient(circuit, 1e-12, initial_conditions={"mid": 0.7})
        assert tel.counters["dcop.converged.cold_start"] == 1
        assert "dcop.converged.warm_start" not in tel.counters

        with telemetry.enabled() as tel:
            simulate_transient(
                circuit, 1e-12, initial_conditions={"mid": 0.7},
                operating_point_guess={"in": 1.0},
            )
        assert tel.counters["dcop.converged.warm_start"] == 1
        assert "dcop.converged.cold_start" not in tel.counters


class TestNewtonErrors:
    def test_zero_max_iterations_is_a_clear_error(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            dcop.SolverOptions(max_iterations=0)

    def test_negative_line_search_backtracks_is_a_clear_error(self):
        # Left unchecked, the line search never binds its trial point
        # and solve_dc dies in an UnboundLocalError.
        with pytest.raises(ValueError, match="line_search_backtracks must be >= 0"):
            dcop.SolverOptions(line_search_backtracks=-1)

    def test_zero_line_search_backtracks_solves(self):
        options = dcop.SolverOptions(line_search_backtracks=0)
        op = dcop.solve_dc(divider(), options=options)
        assert op.voltage("mid") == pytest.approx(0.75, rel=1e-6)

    def test_failure_carries_forensic_snapshot(self):
        c = divider()
        system = MnaSystem(c)
        options = dcop.SolverOptions(
            max_iterations=1, voltage_tolerance=1e-30, residual_tolerance=1e-30
        )
        with pytest.raises(dcop.ConvergenceError) as excinfo:
            dcop.newton_solve(system, np.ones(system.size), 0.0, options)
        forensics = excinfo.value.forensics
        assert "last_dv" in forensics and "max_residual" in forensics
        names = " ".join(forensics["worst_residual_nodes"])
        assert "in" in names or "mid" in names
        assert "worst_residual_nodes=" in str(excinfo.value)

    def test_newton_counters_roll_up(self):
        with telemetry.enabled() as tel:
            dcop.solve_dc(divider())
        assert tel.counters["newton.solves"] >= 1
        assert tel.counters["newton.iterations"] >= 1
        hist = tel.histograms["newton.iterations_per_solve"]
        assert hist.count == tel.counters["newton.solves"]
        assert tel.timers["newton.wall_s"].count == tel.counters["newton.solves"]
