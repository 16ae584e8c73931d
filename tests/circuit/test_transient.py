"""Tests for the adaptive backward-Euler transient integrator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit.dcop import ConvergenceError, drive
from repro.circuit.netlist import Circuit
from repro.circuit.transient import (
    TransientOptions,
    full_length,
    simulate_transient,
    transient_gen,
)
from repro.circuit.waveforms import Pulse
from repro.devices.charges import SmoothStepCharge
from repro.devices.library import tfet_device
from repro.telemetry import core as telemetry


def rc_circuit(tau_resistor=1e4, cap=1e-13):
    c = Circuit("rc")
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 1.0, t_start=1e-10, width=1e-8, t_edge=1e-12)
    )
    c.add_resistor("in", "out", tau_resistor)
    c.add_capacitor("out", "0", cap)
    return c


class TestRcStep:
    def test_matches_analytic_exponential(self):
        c = rc_circuit()
        res = simulate_transient(c, 4e-9)
        tau = 1e4 * 1e-13
        for n_tau in (0.5, 1.0, 2.0, 3.0):
            t = 1.01e-10 + n_tau * tau
            expected = 1.0 - math.exp(-n_tau)
            assert res.at("out", t) == pytest.approx(expected, abs=0.02)

    def test_tighter_step_limit_improves_accuracy(self):
        c = rc_circuit()
        coarse = simulate_transient(c, 2e-9, options=TransientOptions(max_voltage_step=0.2))
        fine = simulate_transient(c, 2e-9, options=TransientOptions(max_voltage_step=0.01))
        tau = 1e-9
        t = 1.01e-10 + tau
        truth = 1.0 - math.exp(-1.0)
        assert abs(fine.at("out", t) - truth) < abs(coarse.at("out", t) - truth) + 1e-6

    def test_final_value_reaches_rail(self):
        res = simulate_transient(rc_circuit(), 8e-9)
        assert res.final("out") == pytest.approx(1.0, abs=1e-3)


class TestBreakpoints:
    def test_edge_corners_are_sampled_exactly(self):
        c = rc_circuit()
        res = simulate_transient(c, 1e-9)
        for corner in (1e-10, 1.01e-10):
            assert np.min(np.abs(res.times - corner)) < 1e-18

    def test_narrow_pulse_not_skipped(self):
        c = Circuit()
        c.add_voltage_source(
            "vin", "in", "0", Pulse(0.0, 1.0, t_start=5e-10, width=2e-12, t_edge=1e-12)
        )
        c.add_resistor("in", "out", 10.0)
        c.add_capacitor("out", "0", 1e-16)
        res = simulate_transient(c, 1e-9)
        assert np.max(res.voltage("in")) == pytest.approx(1.0, abs=1e-9)


class TestInitialConditions:
    def test_storage_node_starts_at_requested_value(self):
        c = Circuit()
        c.add_capacitor("mem", "0", 1e-15)
        res = simulate_transient(c, 1e-10, initial_conditions={"mem": 0.63})
        assert res.states[0][c.index_of("mem")] == pytest.approx(0.63, abs=1e-3)

    def test_isolated_node_holds_its_charge(self):
        c = Circuit()
        c.add_capacitor("mem", "0", 1e-15)
        res = simulate_transient(c, 1e-9, initial_conditions={"mem": 0.63})
        # Only the solver gmin leaks the node: tau = C/gmin = 1000 s.
        assert res.final("mem") == pytest.approx(0.63, abs=1e-3)

    def test_bistable_cell_holds_state(self):
        d = tfet_device()
        c = Circuit()
        c.add_voltage_source("vdd", "vdd", "0", 0.8)
        for out, inp, tag in (("q", "qb", "l"), ("qb", "q", "r")):
            c.add_transistor(f"mp{tag}", out, inp, "vdd", d, "p", 0.1)
            c.add_transistor(f"mn{tag}", out, inp, "0", d, "n", 0.1)
            c.add_capacitor(out, "0", 2e-16)
        res = simulate_transient(c, 2e-9, initial_conditions={"q": 0.8, "qb": 0.0})
        assert res.final("q") == pytest.approx(0.8, abs=0.01)
        assert res.final("qb") == pytest.approx(0.0, abs=0.01)


class TestNonlinearCapacitor:
    def test_charge_conservation_through_step_region(self):
        # Drive a nonlinear cap through its C(V) step via a resistor and
        # check the final stored charge matches q(V_final).
        step = SmoothStepCharge(1e-16, 5e-16, 0.4, 0.05)
        c = Circuit()
        c.add_voltage_source(
            "vin", "in", "0", Pulse(0.0, 1.0, t_start=1e-10, width=1e-7, t_edge=1e-12)
        )
        c.add_resistor("in", "out", 1e4)
        c.add_capacitor("out", "0", step)
        res = simulate_transient(c, 5e-11 + 8e-9)
        assert res.final("out") == pytest.approx(1.0, abs=5e-3)

    def test_nonlinear_cap_slows_transition_in_step_region(self):
        step = SmoothStepCharge(1e-16, 8e-16, 0.5, 0.05)
        c = Circuit()
        c.add_voltage_source(
            "vin", "in", "0", Pulse(0.0, 1.0, t_start=1e-11, width=1e-7, t_edge=1e-12)
        )
        c.add_resistor("in", "out", 1e4)
        c.add_capacitor("out", "0", step)
        res = simulate_transient(c, 6e-9)
        # Time spent between 0.45 V and 0.7 V (high-C region) exceeds
        # time between 0.1 V and 0.35 V (low-C region).
        v = res.voltage("out")

        def span(lo, hi):
            inside = (v >= lo) & (v <= hi)
            return res.times[inside][-1] - res.times[inside][0]

        assert span(0.45, 0.7) > 2.0 * span(0.1, 0.35)


class TestTelemetryAndForensics:
    @pytest.fixture(autouse=True)
    def _no_leaked_session(self):
        from repro.telemetry import core as telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    def test_step_accounting_counters(self):
        from repro.telemetry import core as telemetry

        with telemetry.enabled() as tel:
            simulate_transient(rc_circuit(), 2e-9)
        c = tel.counters
        assert c["transient.simulations"] == 1
        assert c["transient.steps_accepted"] >= 10
        # The 1 ps pulse edges force dV-limit rejections at the default
        # 60 mV step cap.
        assert c["transient.rejected_dv_limit"] >= 1
        assert c["transient.steps_rejected"] >= c["transient.rejected_dv_limit"]
        assert c["transient.breakpoint_landings"] >= 2
        hist = tel.histograms["transient.step_seconds"]
        assert hist.count == c["transient.steps_accepted"]

    def test_disabled_session_records_nothing(self):
        from repro.telemetry import core as telemetry

        simulate_transient(rc_circuit(), 1e-9)
        assert telemetry.active() is None

    def test_underflow_carries_forensics(self, monkeypatch):
        import repro.circuit.transient as tr
        from repro.telemetry import core as telemetry

        real = tr.newton_gen

        def fail_in_transient(system, x0, t, options, transient=None, **kwargs):
            if transient is not None:
                raise ConvergenceError("forced transient failure")
            return (yield from real(system, x0, t, options, transient=transient, **kwargs))

        monkeypatch.setattr(tr, "newton_gen", fail_in_transient)
        with telemetry.enabled() as tel:
            with pytest.raises(ConvergenceError, match="step underflow") as excinfo:
                simulate_transient(rc_circuit(), 1e-9)
        forensics = excinfo.value.forensics
        assert forensics["last_rejection"] == "newton"
        assert forensics["step_s"] < 1e-16
        assert tel.counters["transient.step_underflows"] == 1
        assert tel.counters["transient.rejected_newton"] >= 1


class TestOptionsAndErrors:
    def test_rejects_nonpositive_stop_time(self):
        with pytest.raises(ValueError):
            simulate_transient(rc_circuit(), 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # shrink >= 1 never shrinks a rejected step: the integrator hangs.
            ("shrink", 1.0),
            ("shrink", 0.0),
            # A zero first step surfaces as a misleading step underflow.
            ("initial_step", 0.0),
            # A negative or zero step bound hangs the integrator.
            ("max_step", -5e-11),
            ("min_step", 0.0),
        ],
    )
    def test_rejects_invalid_step_control(self, field, value):
        with pytest.raises(ValueError, match=f"TransientOptions.{field} must be"):
            TransientOptions(**{field: value})

    def test_result_times_strictly_increasing(self):
        res = simulate_transient(rc_circuit(), 1e-9)
        assert np.all(np.diff(res.times) > 0)

    def test_simulation_reaches_exactly_t_stop(self):
        res = simulate_transient(rc_circuit(), 1.7e-9)
        assert res.times[-1] == pytest.approx(1.7e-9, rel=1e-12)


class TestStopRule:
    T_STOP = 2e-9

    def test_rule_sees_every_sample_from_t0(self):
        full = simulate_transient(rc_circuit(), self.T_STOP)
        seen = []

        def until(t, x):
            seen.append((t, x.copy()))
            return False

        result = drive(transient_gen(rc_circuit(), self.T_STOP, until=until))
        assert seen[0][0] == 0.0
        assert np.array([t for t, _ in seen]).tobytes() == full.times.tobytes()
        assert np.array([x for _, x in seen]).tobytes() == full.states.tobytes()
        assert result.states.tobytes() == full.states.tobytes()

    def test_stopped_result_is_a_bytes_equal_prefix(self):
        full = simulate_transient(rc_circuit(), self.T_STOP)
        out = rc_circuit().index_of("out")
        with telemetry.enabled() as tel:
            stopped = simulate_transient(
                rc_circuit(), self.T_STOP, until=lambda t, x: x[out] >= 0.5
            )
        k = int(np.argmax(full.states[:, out] >= 0.5))
        assert 0 < k < len(full.times) - 1
        assert stopped.times.tobytes() == full.times[: k + 1].tobytes()
        assert stopped.states.tobytes() == full.states[: k + 1].tobytes()
        assert tel.counters["transient.stopped"] == 1
        assert tel.counters["transient.steps_accepted"] == k

    def test_rule_true_at_t0_keeps_only_the_operating_point(self):
        full = simulate_transient(rc_circuit(), self.T_STOP)
        stopped = simulate_transient(rc_circuit(), self.T_STOP, until=lambda t, x: True)
        assert stopped.times.tobytes() == full.times[:1].tobytes()
        assert stopped.states.tobytes() == full.states[:1].tobytes()

    def test_rule_holding_only_at_t_stop_is_not_an_early_end(self):
        with telemetry.enabled() as tel:
            result = simulate_transient(
                rc_circuit(), self.T_STOP, until=lambda t, x: t >= self.T_STOP
            )
        assert result.times[-1] == self.T_STOP
        assert "transient.stopped" not in tel.counters

    def test_full_length_ignores_the_rule(self):
        full = simulate_transient(rc_circuit(), self.T_STOP)
        with full_length():
            result = simulate_transient(rc_circuit(), self.T_STOP, until=lambda t, x: True)
        assert result.states.tobytes() == full.states.tobytes()
        # The switch ends with its block.
        after = simulate_transient(rc_circuit(), self.T_STOP, until=lambda t, x: True)
        assert len(after.times) == 1
