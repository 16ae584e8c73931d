"""Write and read delay measurements (the paper's Fig. 11 metrics).

Each transient ends at its decision point: a write at the first sign
change of v(one) - v(zero) after the wordline rises, a read at the
first sample after it whose split reaches the threshold.  The
extraction reads only samples up to there, so both values equal the
full-length ones bit for bit
(:func:`repro.circuit.transient.full_length` is the reference).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, simulate_transient
from repro.sram.assist import Assist
from repro.sram.testbench import Testbench

__all__ = ["write_delay", "read_delay", "SENSE_THRESHOLD"]

SENSE_THRESHOLD = 0.05
"""Bitline differential (V) at which the sense amplifier fires."""

WRITE_PULSE_FACTOR = 10.0
"""Write delay is measured with a comfortably wide wordline pulse."""


def _sample_voltage(circuit: Circuit, x: np.ndarray):
    """``voltage(node)`` of one solution vector, the per-sample
    counterpart of :meth:`TransientResult.voltage` (ground is 0 V)."""

    def voltage(name: str):
        index = circuit.index_of(name)
        return 0.0 if index < 0 else x[index]

    return voltage


def _read_split(bench: Testbench, voltage):
    """The read signal from ``voltage(node)``, a sample's value or a
    waveform: ``|v(blb) - v(bl)|``, or the single-ended read bitline's
    droop below its precharge level."""
    if bench.read_reference is None:
        reference = bench.precharge_level
    else:
        reference = voltage(bench.read_reference)
    return np.abs(reference - voltage(bench.read_bitline))


def _crossed_rule(bench: Testbench):
    """Stop rule of a write: the first sample at or after ``t_on`` whose
    sign bit of v(one) - v(zero) differs from the previous such
    sample's — the end of the interval
    :meth:`TransientResult.crossing_time` interpolates in."""
    circuit, t_on = bench.circuit, bench.window.t_on
    previous = None

    def until(t: float, x: np.ndarray) -> bool:
        nonlocal previous
        if t < t_on:
            return False
        v = _sample_voltage(circuit, x)
        sign = bool(np.signbit(v(bench.one_node) - v(bench.zero_node)))
        crossed = previous is not None and sign != previous
        previous = sign
        return crossed

    return until


def write_delay(
    cell,
    vdd: float,
    assist: Assist | None = None,
    pulse_width: float = 2.0e-9,
    options: TransientOptions | None = None,
) -> float:
    """Time from wordline activation to the storage-node crossing.

    Returns ``math.inf`` when the cell never flips within the pulse
    (that transient runs to 0.5 ns past the pulse).
    """
    bench = cell.write_testbench(vdd, pulse_width, assist=assist)
    result = simulate_transient(
        bench.circuit,
        bench.settle_stop(0.5e-9),
        initial_conditions=bench.initial_conditions,
        options=options,
        until=_crossed_rule(bench),
    )
    crossing = result.crossing_time(
        bench.one_node, bench.zero_node, after=bench.window.t_on
    )
    if crossing is None:
        return float("inf")
    return crossing - bench.window.t_on


def read_delay(
    cell,
    vdd: float,
    assist: Assist | None = None,
    duration: float = 4.0e-9,
    threshold: float = SENSE_THRESHOLD,
    options: TransientOptions | None = None,
) -> float:
    """Time from wordline activation until the read signal develops.

    For differential cells the signal is the bitline split
    ``|v(bl) - v(blb)|``; for the 7T's single-ended port it is the read
    bitline's droop below its precharge level.  Returns ``math.inf``
    when the threshold is never reached inside the access window (that
    transient runs to the window's end).
    """
    bench = cell.read_testbench(vdd, assist=assist, duration=duration)
    circuit, t_on = bench.circuit, bench.window.t_on
    result = simulate_transient(
        circuit,
        bench.window.t_off,
        initial_conditions=bench.initial_conditions,
        options=options,
        until=lambda t, x: (
            t >= t_on and _read_split(bench, _sample_voltage(circuit, x)) >= threshold
        ),
    )
    split = _read_split(bench, result.voltage)

    mask = result.times >= t_on
    times = result.times[mask]
    split = split[mask]
    above = np.nonzero(split >= threshold)[0]
    if above.size == 0:
        return float("inf")
    k = above[0]
    if k == 0:
        return 0.0
    frac = (threshold - split[k - 1]) / (split[k] - split[k - 1])
    t_cross = times[k - 1] + frac * (times[k] - times[k - 1])
    return float(t_cross - t_on)
