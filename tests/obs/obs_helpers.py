"""Module-level task functions for the trace-pipeline tests.

Pool workers pickle task functions by qualified name, so everything a
multi-worker traced test submits must live in an importable module —
same constraint as ``tests/engine/engine_helpers.py``.
"""

from __future__ import annotations

from repro.circuit.dcop import ConvergenceError


def seeded_value(payload, ctx) -> float:
    """Deterministic float from the task's private rng stream."""
    return float(ctx.rng().standard_normal()) + float(payload)


def flaky_once(payload, ctx) -> float:
    """Diverges on the first attempt; succeeds once retried."""
    if ctx.attempt == 0:
        raise ConvergenceError(f"task {ctx.index}: first attempt diverges")
    return float(ctx.attempt)


def always_diverges(payload, ctx) -> float:
    raise ConvergenceError("no operating point found")


def divider_solve(payload, ctx) -> float:
    """One real DC solve, so the task span carries solver counters."""
    from repro.circuit.dcop import solve_dc
    from repro.circuit.netlist import Circuit

    c = Circuit()
    c.add_voltage_source("v1", "in", "0", 1.0)
    c.add_resistor("in", "out", 1e3)
    c.add_resistor("out", "0", 1e3 * (1 + payload))
    return solve_dc(c).voltage("out")
