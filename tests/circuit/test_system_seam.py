"""The dense-assembler seam of the scalar solvers.

``solve_dc`` builds its system from ``dcop.MnaSystem``, and every
transient — ``simulate_transient`` and each WL_crit search — from
``transient.MnaSystem``; both are read at call time and handed to
``make_system(dense_cls=...)``.  ``benchmarks/test_spice_core.py``
patches both to :class:`ReferenceMnaSystem` to rebuild its seed
baseline, so a solver path that bypassed the module globals would
silently time the optimized assembler as the baseline.
"""

from __future__ import annotations

import pytest

from repro.analysis.stability import WlCritSearch, critical_wordline_pulse
from repro.circuit import dcop, transient
from repro.circuit.mna_reference import ReferenceMnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.transient import simulate_transient
from repro.circuit.waveforms import Pulse
from repro.experiments.designs import proposed_cell
from repro.telemetry import core as telemetry


class CountingReference(ReferenceMnaSystem):
    """The reference assembler, counting instances and assemblies."""

    instances = 0
    assemblies = 0

    def __init__(self, circuit):
        super().__init__(circuit)
        CountingReference.instances += 1

    def assemble(self, *args, **kwargs):
        CountingReference.assemblies += 1
        return super().assemble(*args, **kwargs)


@pytest.fixture
def reference(monkeypatch):
    monkeypatch.setattr(CountingReference, "instances", 0)
    monkeypatch.setattr(CountingReference, "assemblies", 0)
    monkeypatch.setattr(dcop, "MnaSystem", CountingReference)
    monkeypatch.setattr(transient, "MnaSystem", CountingReference)
    return CountingReference


def rc_circuit() -> Circuit:
    c = Circuit()
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 1.0, t_start=1e-10, width=1e-8, t_edge=1e-11)
    )
    c.add_resistor("in", "out", 1e3)
    c.add_capacitor("out", "0", 1e-13)
    return c


def test_solve_dc_builds_from_the_dcop_global(reference):
    op = dcop.solve_dc(rc_circuit())
    assert op.voltage("out") == pytest.approx(0.0, abs=1e-9)
    assert reference.instances == 1
    assert reference.assemblies >= 1


def test_simulate_transient_builds_from_the_transient_global(reference):
    result = simulate_transient(rc_circuit(), 1e-9)
    assert result.final("out") == pytest.approx(1.0, abs=1e-3)
    assert reference.instances == 1
    assert reference.assemblies >= len(result.times)


def test_wlcrit_probes_build_from_the_transient_global(reference):
    search = WlCritSearch(relative_tolerance=0.5)
    with telemetry.enabled() as tel:
        wlcrit = critical_wordline_pulse(proposed_cell(), 0.8, search=search)
    assert 1e-12 < wlcrit < 4e-9
    # One system per search, shared by its probes; every step a probe
    # integrates assembles on it.
    assert tel.counters["transient.simulations"] >= 3
    assert reference.instances == 1
    assert reference.assemblies >= tel.counters["transient.steps_accepted"]
