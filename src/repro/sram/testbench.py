"""Testbench description returned by the cell builders.

A testbench bundles the circuit, the initial state that selects one
branch of the bistable cell, and the metadata the analysis layer needs
(access window, which node stores the 1, which bitline develops the
read signal).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import Waveform
from repro.sram.assist import AccessWindow

__all__ = [
    "Testbench",
    "BITLINE_CAPACITANCE",
    "DEFAULT_ACCESS_START",
    "pulse_width_factory",
]

BITLINE_CAPACITANCE = 5e-15
"""Bitline capacitance in farads (short local-array segment)."""

DEFAULT_ACCESS_START = 8.0e-10
"""Default wordline activation time; leaves room for the rail-assist lead-in."""


@dataclass(frozen=True)
class Testbench:
    """A ready-to-simulate SRAM operation."""

    circuit: Circuit
    initial_conditions: dict[str, float]
    window: AccessWindow
    one_node: str = "q"
    zero_node: str = "qb"
    read_bitline: str | None = None
    """Bitline on which the read signal develops (None for writes)."""

    read_reference: str | None = None
    """Complement bitline, or None for a single-ended read port."""

    precharge_level: float = 0.0
    """Bitline precharge voltage for read operations."""

    notes: dict[str, float] = field(default_factory=dict)

    def settle_stop(self, settle: float = 1.5e-9) -> float:
        """A simulation end time comfortably past the access window."""
        return self.window.t_off + settle


def pulse_width_factory(
    base: Testbench, sources: Callable[[float], dict[str, Waveform]]
) -> Callable[[float], Testbench]:
    """A ``pulse_width -> Testbench`` factory on ``base``'s circuit.

    Each call sets every source that ``sources(pulse_width)`` names to
    its waveform — the waveform swap the MNA source caches key on — and
    returns a bench whose access window opens at ``base``'s ``t_on``
    and lasts the width.  The benches share the circuit: a bench is
    current until the next call.  The cells' ``write_bench_factory``
    is this over their write bench and its source definition.
    """
    circuit = base.circuit
    t_on = base.window.t_on

    def factory(pulse_width: float) -> Testbench:
        for name, waveform in sources(pulse_width).items():
            m = circuit.source_index(name)
            circuit.voltage_sources[m] = replace(circuit.voltage_sources[m], waveform=waveform)
        return Testbench(circuit, base.initial_conditions, AccessWindow(t_on, t_on + pulse_width))

    return factory
