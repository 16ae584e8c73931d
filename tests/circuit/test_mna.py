"""Tests for MNA assembly: residuals and Jacobians."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.netlist import Circuit
from repro.devices.charges import ChargeFunction, MirroredCharge, SmoothStepCharge
from repro.devices.library import nmos_device, tfet_device


def jacobian_fd(system, x, t, **kwargs):
    """Finite-difference Jacobian of the assembled residual."""
    f0, _ = system.assemble(x, t, **kwargs)
    jac = np.zeros((len(x), len(x)))
    h = 1e-7
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        fp, _ = system.assemble(xp, t, **kwargs)
        jac[:, k] = (fp - f0) / h
    return jac


def build_mixed_circuit():
    c = Circuit("mixed")
    c.add_voltage_source("vdd", "vdd", "0", 0.8)
    c.add_voltage_source("vin", "in", "0", 0.35)
    c.add_resistor("vdd", "out", 5e4)
    c.add_transistor("mn", "out", "in", "0", nmos_device(), "n", 0.1)
    c.add_transistor("mp", "out", "in", "vdd", tfet_device(), "p", 0.1)
    c.add_capacitor("out", "0", 1e-15)
    c.add_capacitor("out", "in", SmoothStepCharge(1e-16, 4e-16, 0.2, 0.1))
    return c


class TestResidual:
    def test_kcl_residual_zero_at_solution(self):
        from repro.circuit.dcop import solve_dc

        c = build_mixed_circuit()
        op = solve_dc(c)
        system = MnaSystem(c)
        f, _ = system.assemble(op.x, 0.0, gmin=1e-12)
        assert np.max(np.abs(f)) < 1e-9

    def test_voltage_source_row_enforces_level(self):
        c = Circuit()
        c.add_voltage_source("v1", "a", "0", 1.5)
        system = MnaSystem(c)
        x = np.array([1.5, 0.0])
        f, _ = system.assemble(x, 0.0)
        assert f[1] == pytest.approx(0.0)
        x_bad = np.array([1.0, 0.0])
        f, _ = system.assemble(x_bad, 0.0)
        assert f[1] == pytest.approx(-0.5)

    def test_gmin_adds_diagonal_leak(self):
        c = Circuit()
        c.node("a")
        system = MnaSystem(c)
        x = np.array([2.0])
        f, jac = system.assemble(x, 0.0, gmin=1e-9)
        assert f[0] == pytest.approx(2e-9)
        assert jac[0, 0] == pytest.approx(1e-9)

    def test_clamp_pulls_toward_target(self):
        c = Circuit()
        idx = c.node("a")
        system = MnaSystem(c)
        x = np.array([0.0])
        clamp = VoltageClamp(idx, 0.8, conductance=10.0)
        f, jac = system.assemble(x, 0.0, clamps=(clamp,))
        assert f[0] == pytest.approx(-8.0)
        assert jac[0, 0] == pytest.approx(10.0)

    def test_source_scaling(self):
        c = Circuit()
        c.add_voltage_source("v1", "a", "0", 2.0)
        system = MnaSystem(c)
        x = np.array([1.0, 0.0])
        f, _ = system.assemble(x, 0.0, source_scale=0.5)
        assert f[1] == pytest.approx(0.0)

    def test_current_source_stamps_both_nodes(self):
        c = Circuit()
        c.add_current_source("i1", "a", "b", 1e-6)
        system = MnaSystem(c)
        f, _ = system.assemble(np.zeros(2), 0.0)
        assert f[0] == pytest.approx(1e-6)
        assert f[1] == pytest.approx(-1e-6)


class TestJacobian:
    def test_dc_jacobian_matches_finite_difference(self):
        c = build_mixed_circuit()
        system = MnaSystem(c)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 0.8, system.size)
        _, jac = system.assemble(x, 0.0, gmin=1e-12)
        fd = jacobian_fd(system, x, 0.0, gmin=1e-12)
        assert np.allclose(jac, fd, rtol=5e-3, atol=1e-9)

    def test_transient_jacobian_matches_finite_difference(self):
        c = build_mixed_circuit()
        system = MnaSystem(c)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 0.8, system.size)
        state = TransientState(
            timestep=1e-12, capacitor_charges=system.capacitor_charges(x * 0.9)
        )
        _, jac = system.assemble(x, 0.0, transient=state)
        fd = jacobian_fd(system, x, 0.0, transient=state)
        assert np.allclose(jac, fd, rtol=5e-3, atol=1e-6)


class TestCapacitorBank:
    def test_mirrored_step_charge_vectorized_correctly(self):
        ref = SmoothStepCharge(1e-16, 4e-16, 0.25, 0.08)
        mirrored = MirroredCharge(ref)
        c = Circuit()
        c.add_capacitor("a", "0", mirrored, scale=2.0)
        system = MnaSystem(c)
        x = np.array([-0.6])
        q = system.capacitor_charges(x)
        assert q[0] == pytest.approx(2.0 * float(np.asarray(mirrored.charge(-0.6))))

    def test_custom_charge_function_fallback(self):
        class CubicCharge(ChargeFunction):
            def charge(self, v):
                return 1e-15 * np.asarray(v) ** 3

            def capacitance(self, v):
                return 3e-15 * np.asarray(v) ** 2

        c = Circuit()
        c.add_capacitor("a", "0", CubicCharge())
        system = MnaSystem(c)
        q = system.capacitor_charges(np.array([0.5]))
        assert q[0] == pytest.approx(1e-15 * 0.125)

    def test_empty_circuit_charges(self):
        system = MnaSystem(Circuit())
        assert system.capacitor_charges(np.zeros(0)).size == 0


class TestTransistorBatching:
    def test_same_model_grouped(self):
        c = Circuit()
        d = tfet_device()
        c.add_transistor("m1", "a", "b", "0", d, "n", 0.1)
        c.add_transistor("m2", "b", "a", "0", d, "p", 0.2)
        system = MnaSystem(c)
        assert len(system._groups) == 1
        assert len(system._groups[0].members) == 2

    def test_different_models_separate_groups(self):
        c = Circuit()
        c.add_transistor("m1", "a", "b", "0", tfet_device(), "n", 0.1)
        c.add_transistor("m2", "b", "a", "0", nmos_device(), "n", 0.2)
        assert len(MnaSystem(c)._groups) == 2

    def test_polarity_mirror_current_sign(self):
        # A pTFET with source above drain conducts into the drain.
        c = Circuit()
        c.add_voltage_source("vs", "s", "0", 0.8)
        c.add_transistor("mp", "d", "0", "s", tfet_device(), "p", 0.1)
        system = MnaSystem(c)
        x = np.zeros(system.size)
        x[c.index_of("s")] = 0.8
        f, _ = system.assemble(x, 0.0)
        # Current out of node d must be negative (being charged).
        assert f[c.index_of("d")] < 0.0


def per_card_stamp(system, x):
    """The devices' stamped ``(i_d, gm, gds)`` with one ``evaluate_density``
    call per card, each card's devices in the system's flattened order."""
    xg = np.append(x[: system.n_nodes], 0.0)  # GROUND (-1) reads the 0.0
    out = np.empty((3, system._t_count))
    start = 0
    for grp in system._groups:
        at = slice(start, start + len(grp.members))
        vs = xg[grp.source]
        j, gm, gds = grp.model.evaluate_density(
            grp.sign * (xg[grp.gate] - vs), grp.sign * (xg[grp.drain] - vs)
        )
        out[:, at] = (grp.sign * grp.width * j, grp.width * gm, grp.width * gds)
        start += len(grp.members)
    return out


def count_mosfet_calls(monkeypatch) -> list:
    """Patch ``MosfetModel.evaluate_density`` to log each call's size."""
    from repro.devices.mosfet import MosfetModel

    calls = []
    real = MosfetModel.evaluate_density

    def counting(self, vgs, vds, *args, **kwargs):
        calls.append(np.size(vgs))
        return real(self, vgs, vds, *args, **kwargs)

    monkeypatch.setattr(MosfetModel, "evaluate_density", counting)
    return calls


def assert_one_mosfet_call_per_fresh_assembly(system, monkeypatch, seed=0):
    """Two cards (nMOS and pMOS), one call per fresh assembly, none on a
    repeat of the last point, and stamps bytes-equal to per-card calls."""
    from repro.devices.mosfet import MosfetModel

    cards = {id(g.model) for g in system._groups if type(g.model) is MosfetModel}
    assert len(cards) == 2
    n_mos = sum(len(g.members) for g in system._groups if id(g.model) in cards)
    calls = count_mosfet_calls(monkeypatch)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.uniform(-0.2, 1.0, system.size)
        before = len(calls)
        system.assemble(x, 0.0)
        assert calls[before:] == [n_mos]
        system.assemble_residual(x, 0.0)
        assert len(calls) == before + 1
        stamped = np.array((system._t_id, system._t_gm, system._t_gds))
        assert stamped.tobytes() == per_card_stamp(system, x).tobytes()


class TestMosfetStacking:
    def test_cmos_bench_makes_one_mosfet_call_per_assembly(self, monkeypatch):
        from repro.sram.cmos6t import Cmos6TCell

        bench = Cmos6TCell().read_testbench(0.8)
        assert_one_mosfet_call_per_fresh_assembly(MnaSystem(bench.circuit), monkeypatch)

    def test_interleaved_mosfet_cards_keep_device_order(self, monkeypatch):
        """MOSFET groups separated by a TFET group: one call over
        non-contiguous positions, stamps still per-card bytes."""
        from repro.devices.library import pmos_device

        c = Circuit()
        c.add_voltage_source("vdd", "vdd", "0", 0.8)
        c.add_transistor("m1", "a", "b", "0", nmos_device(), "n", 0.1)
        c.add_transistor("m2", "b", "a", "0", tfet_device(), "n", 0.1)
        c.add_transistor("m3", "a", "b", "vdd", pmos_device(), "p", 0.2)
        c.add_transistor("m4", "b", "a", "vdd", tfet_device(), "p", 0.2)
        c.add_transistor("m5", "b", "a", "0", nmos_device(), "n", 0.3)
        system = MnaSystem(c)
        (_, tfet_at, *_), (_, mos_at, *_) = system._t_groups
        assert tfet_at == slice(2, 4)
        assert mos_at.tolist() == [0, 1, 4]
        assert_one_mosfet_call_per_fresh_assembly(system, monkeypatch)

    def test_other_models_keep_their_own_call(self):
        """A model that is neither a table nor a MosfetModel is evaluated
        per card, as before."""

        class Ohmic:
            def evaluate_density(self, vgs, vds):
                return 1e-4 * vds, np.zeros_like(vgs), np.full_like(vds, 1e-4)

        c = Circuit()
        c.add_voltage_source("vdd", "a", "0", 0.8)
        c.add_transistor("m1", "a", "a", "b", Ohmic(), "n", 1.0)
        c.add_transistor("m2", "b", "b", "0", nmos_device(), "n", 0.1)
        system = MnaSystem(c)
        assert len(system._t_groups) == 2
        x = np.array([0.8, 0.3, 0.0])
        system.assemble(x, 0.0)
        stamped = np.array((system._t_id, system._t_gm, system._t_gds))
        assert stamped.tobytes() == per_card_stamp(system, x).tobytes()
