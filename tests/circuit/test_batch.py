"""Stacked-batch Newton must be bit-identical to the scalar solvers.

``solve_dc`` / ``simulate_transient`` drive the same generators
(``solve_dc_gen`` / ``transient_gen``) one at a time on each system's
own assembler; :func:`run_generators` drives K of them with the stacked
assembler.  A batch of K variants must therefore reproduce the scalar
waveforms *exactly* (``tobytes`` equality), not merely to tolerance —
this pins the stacked assembler against the scalar one (the control
flow itself is pinned by ``test_solver_golden.py``).  Error isolation
and the shared-topology precondition are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.batch import run_generators
from repro.circuit.dcop import solve_dc, solve_dc_gen
from repro.circuit.netlist import Circuit
from repro.circuit.transient import simulate_transient, transient_gen
from repro.circuit.waveforms import Pulse
from repro.devices.charges import SmoothStepCharge
from repro.devices.library import tfet_device
from repro.telemetry import core as telemetry

T_STOP = 2e-9


def _inverter(width_n: float, cload: float) -> Circuit:
    """A loaded TFET inverter — small, nonlinear, fast to integrate."""
    c = Circuit("inv")
    model = tfet_device()
    c.add_voltage_source("vdd", "vdd", "0", 0.8)
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 0.8, t_start=2e-10, width=1e-9, t_edge=5e-11)
    )
    c.add_transistor("mp", "out", "in", "vdd", model, polarity="p", width_um=0.2)
    c.add_transistor("mn", "out", "in", "0", model, polarity="n", width_um=width_n)
    c.add_capacitor("out", "0", SmoothStepCharge(1e-16, 5e-16, 0.4, 0.08))
    c.add_capacitor("out", "0", cload)
    c.add_resistor("out", "0", 1e8)
    return c


VARIANTS = [(0.1, 1e-16), (0.14, 2e-16), (0.2, 5e-17), (0.08, 3e-16)]


def test_batched_transient_bit_identical_to_scalar():
    scalar = [simulate_transient(_inverter(*v), T_STOP) for v in VARIANTS]

    gens = [transient_gen(_inverter(*v), T_STOP) for v in VARIANTS]
    with telemetry.enabled() as tel:
        outcomes = run_generators(gens)
        counters = dict(tel.counters)

    assert [o.status for o in outcomes] == ["ok"] * len(VARIANTS)
    for ref, outcome in zip(scalar, outcomes):
        result = outcome.value
        assert result.times.tobytes() == ref.times.tobytes()
        assert result.states.tobytes() == ref.states.tobytes()
    assert counters["batch.runs"] == 1
    assert counters["batch.members"] == len(VARIANTS)
    assert counters["batch.ticks"] >= 1
    # One stacked assembly per member per tick, minus early finishers.
    assert counters["batch.member_assemblies"] <= (
        counters["batch.ticks"] * len(VARIANTS)
    )


def test_batched_dc_bit_identical_to_scalar():
    outcomes = run_generators([solve_dc_gen(_inverter(*v)) for v in VARIANTS])
    for v, outcome in zip(VARIANTS, outcomes):
        assert outcome.status == "ok"
        ref = solve_dc(_inverter(*v))
        assert outcome.value.x.tobytes() == ref.x.tobytes()


def test_member_error_is_isolated():
    """One failing member must not disturb the survivors' results."""

    def exploding():
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator

    outcomes = run_generators(
        [transient_gen(_inverter(*VARIANTS[0]), T_STOP), exploding()]
    )
    assert outcomes[0].status == "ok"
    assert outcomes[1].status == "error"
    assert isinstance(outcomes[1].error, RuntimeError)

    ref = simulate_transient(_inverter(*VARIANTS[0]), T_STOP)
    assert outcomes[0].value.states.tobytes() == ref.states.tobytes()


def test_generator_returning_before_first_yield_is_ok():
    def immediate():
        return 42
        yield  # pragma: no cover - makes this a generator

    outcomes = run_generators([immediate()])
    assert outcomes[0].status == "ok"
    assert outcomes[0].value == 42


def test_mixed_topology_members_rejected():
    small = _inverter(*VARIANTS[0])
    big = _inverter(*VARIANTS[1])
    big.add_resistor("out", "extra", 1e6)
    big.add_capacitor("extra", "0", 1e-16)

    with pytest.raises(ValueError, match="share one topology"):
        run_generators([transient_gen(small, T_STOP), transient_gen(big, T_STOP)])
