"""SPICE-class circuit simulation: MNA + Newton-Raphson + transient.

This package is the reproduction's stand-in for the commercial
simulator the paper drives through Verilog-A lookup-table models.
"""

from repro.circuit.dcop import ConvergenceError, SolverOptions, solve_dc
from repro.circuit.elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    Resistor,
    Transistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.circuit.parser import parse_netlist
from repro.circuit.report import format_netlist, format_operating_point
from repro.circuit.results import OperatingPoint, TransientResult
from repro.circuit.sparse import SparseMnaSystem, make_system
from repro.circuit.sweep import dc_sweep
from repro.circuit.transient import TransientOptions, simulate_transient
from repro.circuit.waveforms import Constant, PiecewiseLinear, Pulse, Waveform

__all__ = [
    "parse_netlist",
    "format_netlist",
    "format_operating_point",
    "ConvergenceError",
    "SolverOptions",
    "solve_dc",
    "GROUND",
    "Capacitor",
    "CurrentSource",
    "Resistor",
    "Transistor",
    "VoltageSource",
    "Circuit",
    "OperatingPoint",
    "TransientResult",
    "SparseMnaSystem",
    "make_system",
    "dc_sweep",
    "TransientOptions",
    "simulate_transient",
    "Constant",
    "PiecewiseLinear",
    "Pulse",
    "Waveform",
]
