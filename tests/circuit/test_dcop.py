"""Tests for the DC operating-point solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.dcop import (
    ConvergenceError,
    SolverOptions,
    newton_gen,
    newton_solve,
    solve_dc,
)
from repro.circuit.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.devices.library import nmos_device, pmos_device, tfet_device
from repro.telemetry import core as telemetry


class TestLinear:
    def test_resistive_divider(self):
        c = Circuit()
        c.add_voltage_source("v1", "in", "0", 1.0)
        c.add_resistor("in", "mid", 1e3)
        c.add_resistor("mid", "0", 3e3)
        op = solve_dc(c)
        assert op.voltage("mid") == pytest.approx(0.75, rel=1e-6)

    def test_branch_current_sign_convention(self):
        # 1 V across 1 kOhm: 1 mA flows out of the source's + terminal,
        # so the branch current (a through source to b) is -1 mA.
        c = Circuit()
        c.add_voltage_source("v1", "a", "0", 1.0)
        c.add_resistor("a", "0", 1e3)
        op = solve_dc(c)
        assert op.branch_current("v1") == pytest.approx(-1e-3, rel=1e-6)

    def test_source_power_positive_when_delivering(self):
        c = Circuit()
        c.add_voltage_source("v1", "a", "0", 1.0)
        c.add_resistor("a", "0", 1e3)
        op = solve_dc(c)
        assert op.source_power("v1") == pytest.approx(1e-3, rel=1e-6)
        assert op.total_source_power() == pytest.approx(1e-3, rel=1e-6)

    def test_floating_node_settles_to_ground_via_gmin(self):
        c = Circuit()
        c.node("float")
        op = solve_dc(c)
        assert op.voltage("float") == pytest.approx(0.0, abs=1e-9)


class TestNonlinear:
    def test_cmos_inverter_rails(self):
        for vin, expected in ((0.0, 0.8), (0.8, 0.0)):
            c = Circuit()
            c.add_voltage_source("vdd", "vdd", "0", 0.8)
            c.add_voltage_source("vin", "in", "0", vin)
            c.add_transistor("mp", "out", "in", "vdd", pmos_device(), "p", 0.2)
            c.add_transistor("mn", "out", "in", "0", nmos_device(), "n", 0.1)
            op = solve_dc(c)
            assert op.voltage("out") == pytest.approx(expected, abs=5e-3)

    def test_tfet_inverter_output_high(self):
        c = Circuit()
        c.add_voltage_source("vdd", "vdd", "0", 0.8)
        c.add_voltage_source("vin", "in", "0", 0.0)
        c.add_transistor("mp", "out", "in", "vdd", tfet_device(), "p", 0.1)
        c.add_transistor("mn", "out", "in", "0", tfet_device(), "n", 0.1)
        op = solve_dc(c, initial_guess={"out": 0.8})
        assert op.voltage("out") == pytest.approx(0.8, abs=5e-3)

    def test_bistable_latch_selected_by_clamp(self):
        d = tfet_device()
        for q0, qb0 in ((0.8, 0.0), (0.0, 0.8)):
            c = Circuit()
            c.add_voltage_source("vdd", "vdd", "0", 0.8)
            for out, inp, tag in (("q", "qb", "l"), ("qb", "q", "r")):
                c.add_transistor(f"mp{tag}", out, inp, "vdd", d, "p", 0.1)
                c.add_transistor(f"mn{tag}", out, inp, "0", d, "n", 0.1)
            op = solve_dc(c, clamp_nodes={"q": q0, "qb": qb0})
            assert op.voltage("q") == pytest.approx(q0, abs=0.05)
            assert op.voltage("qb") == pytest.approx(qb0, abs=0.05)

    def test_diode_connected_tfet_operating_point(self):
        # Current source into a diode-connected nTFET: KCL fixes the
        # node where the device absorbs exactly the source current.
        c = Circuit()
        c.add_current_source("ibias", "0", "d", 1e-6)
        c.add_transistor("m1", "d", "d", "0", tfet_device(), "n", 0.1)
        op = solve_dc(c)
        v = op.voltage("d")
        absorbed = float(np.asarray(tfet_device().current_density(v, v))) * 0.1
        assert absorbed == pytest.approx(1e-6, rel=1e-3)


class TestRobustness:
    def test_zero_guess_converges_on_tfet_inverter(self):
        c = Circuit()
        c.add_voltage_source("vdd", "vdd", "0", 0.8)
        c.add_voltage_source("vin", "in", "0", 0.4)
        c.add_transistor("mp", "out", "in", "vdd", tfet_device(), "p", 0.1)
        c.add_transistor("mn", "out", "in", "0", tfet_device(), "n", 0.1)
        op = solve_dc(c)
        assert 0.0 <= op.voltage("out") <= 0.85

    def test_newton_raises_on_exhausted_iterations(self):
        c = Circuit()
        c.add_voltage_source("vdd", "a", "0", 1.0)
        c.add_resistor("a", "b", 1e3)
        system = MnaSystem(c)
        options = SolverOptions(max_iterations=1, voltage_tolerance=1e-30,
                                residual_tolerance=1e-30)
        with pytest.raises(ConvergenceError):
            newton_solve(system, np.ones(system.size), 0.0, options)

    def test_options_validation_fields(self):
        opts = SolverOptions()
        assert opts.gmin > 0
        assert opts.step_limit > 0


class TestNewtonRequests:
    """The assembly requests ``newton_gen`` yields to its driver."""

    def _tfet_inverter(self):
        c = Circuit()
        c.add_voltage_source("vdd", "vdd", "0", 0.8)
        c.add_voltage_source("vin", "in", "0", 0.3)
        c.add_transistor("mp", "out", "in", "vdd", tfet_device(), "p", 0.1)
        c.add_transistor("mn", "out", "in", "0", tfet_device(), "n", 0.1)
        return c

    def test_first_request_asks_for_the_jacobian_at_the_seed(self):
        # Iteration 1 always stamps at x0, so the residual at x0 comes
        # with that Jacobian instead of from an assembly of its own.
        system = MnaSystem(self._tfet_inverter())
        x0 = np.full(system.size, 0.2)
        gen = newton_gen(system, x0, 0.0, SolverOptions())
        request = gen.send(None)
        gen.close()
        assert request[0] is system
        np.testing.assert_array_equal(request[1], x0)
        assert request[7] is True

    def test_every_jacobian_request_is_factorized(self):
        system = MnaSystem(self._tfet_inverter())
        gen = newton_gen(system, np.zeros(system.size), 0.0, SolverOptions())
        jacobian_requests = 0
        answer = None
        with telemetry.enabled() as tel:
            while True:
                try:
                    request = gen.send(answer)
                except StopIteration as stop:
                    x, iterations = stop.value
                    break
                _, x_req, t, gmin, transient, clamps, scale, want_jac = request
                if want_jac:
                    jacobian_requests += 1
                    answer = system.assemble(
                        x_req, t, gmin=gmin, transient=transient, clamps=clamps,
                        source_scale=scale, copy=False,
                    )
                else:
                    answer = (system.assemble_residual(
                        x_req, t, gmin=gmin, transient=transient, clamps=clamps,
                        source_scale=scale,
                    ), None)
        assert iterations >= 1
        assert jacobian_requests == tel.counters["newton.jacobian_stamps"]
        np.testing.assert_array_equal(x, newton_solve(
            MnaSystem(self._tfet_inverter()), np.zeros(system.size), 0.0,
            SolverOptions(),
        )[0])
