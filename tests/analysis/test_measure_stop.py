"""Stopped measurements equal their full-length procedures bit for bit.

DRNM, read delay and write delay end their transients at the sample
that decides them.  The references here are the full-length
procedures: the transient to the old ``t_stop`` and the same
extraction on the whole waveform.  Each case compares the stopped
value with that reference and with the measurement run under
:func:`repro.circuit.transient.full_length`, and checks from the
``transient.stopped`` counter whether the run ended early.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.stability import SETTLE_TIME, dynamic_read_noise_margin
from repro.analysis.timing import SENSE_THRESHOLD, read_delay, write_delay
from repro.char.designs import DESIGNS, build_cell, delay_windows
from repro.circuit.transient import full_length, simulate_transient
from repro.telemetry import core as telemetry


def _full_drnm(bench) -> float:
    result = simulate_transient(
        bench.circuit,
        bench.settle_stop(SETTLE_TIME),
        initial_conditions=bench.initial_conditions,
    )
    return result.min_difference(
        bench.one_node, bench.zero_node, bench.window.t_on, bench.window.t_off
    )


def _full_write_delay(cell, vdd: float, pulse_width: float) -> float:
    bench = cell.write_testbench(vdd, pulse_width)
    result = simulate_transient(
        bench.circuit,
        bench.settle_stop(0.5e-9),
        initial_conditions=bench.initial_conditions,
    )
    crossing = result.crossing_time(
        bench.one_node, bench.zero_node, after=bench.window.t_on
    )
    return math.inf if crossing is None else crossing - bench.window.t_on


def _full_read_delay(cell, vdd: float, assist, duration: float, threshold: float) -> float:
    bench = cell.read_testbench(vdd, assist=assist, duration=duration)
    result = simulate_transient(
        bench.circuit, bench.window.t_off, initial_conditions=bench.initial_conditions
    )
    signal = result.voltage(bench.read_bitline)
    if bench.read_reference is not None:
        reference = result.voltage(bench.read_reference)
    else:
        reference = np.full_like(signal, bench.precharge_level)
    split = np.abs(reference - signal)
    mask = result.times >= bench.window.t_on
    times, split = result.times[mask], split[mask]
    above = np.nonzero(split >= threshold)[0]
    if above.size == 0:
        return math.inf
    k = above[0]
    if k == 0:
        return 0.0
    frac = (threshold - split[k - 1]) / (split[k] - split[k - 1])
    return float(times[k - 1] + frac * (times[k] - times[k - 1]) - bench.window.t_on)


def _check(measure, reference: float, stops: bool) -> None:
    """``measure()`` equals ``reference`` and its full-length run, and
    ends early exactly when ``stops``."""
    with telemetry.enabled() as tel:
        value = measure()
    with full_length():
        full = measure()
    assert np.float64(value).tobytes() == np.float64(reference).tobytes()
    assert np.float64(full).tobytes() == np.float64(reference).tobytes()
    assert tel.counters.get("transient.stopped", 0) == int(stops)


def _point(design: str, vdd: float):
    cell, assist = build_cell(design)
    pulse, duration = delay_windows(DESIGNS[design], vdd)
    return cell, assist, pulse, duration


@pytest.mark.parametrize("design", ["proposed", "cmos"])
def test_drnm_matches_full_length(design):
    cell, assist, _, _ = _point(design, 0.8)
    bench = cell.read_testbench(0.8, assist=assist)
    _check(lambda: dynamic_read_noise_margin(bench), _full_drnm(bench), stops=True)


@pytest.mark.parametrize("assisted", [False, True], ids=["no-ra", "segmented-ra"])
def test_half_select_drnm_matches_full_length(assisted):
    from repro.experiments.ext_half_select import _half_select_bench
    from repro.sram import READ_ASSISTS, AccessConfig, CellSizing, Tfet6TCell

    cell = Tfet6TCell(CellSizing().with_beta(0.6), access=AccessConfig.INWARD_P)
    assist = READ_ASSISTS["vgnd_lowering"] if assisted else None
    bench = _half_select_bench(cell, 0.8, assist)
    _check(lambda: dynamic_read_noise_margin(bench), _full_drnm(bench), stops=True)


@pytest.mark.parametrize("design", ["proposed", "cmos", "7t"])
def test_read_delay_matches_full_length(design):
    cell, assist, _, duration = _point(design, 0.8)
    reference = _full_read_delay(cell, 0.8, assist, duration, SENSE_THRESHOLD)
    assert math.isfinite(reference)
    _check(
        lambda: read_delay(cell, 0.8, assist=assist, duration=duration),
        reference,
        stops=True,
    )


def test_read_that_never_reaches_the_threshold_runs_full_length():
    cell, assist, _, duration = _point("proposed", 0.8)
    reference = _full_read_delay(cell, 0.8, assist, duration, threshold=1.0)
    assert reference == math.inf
    _check(
        lambda: read_delay(cell, 0.8, assist=assist, duration=duration, threshold=1.0),
        reference,
        stops=False,
    )


@pytest.mark.parametrize(
    "design, vdd, flips",
    [("proposed", 0.8, True), ("cmos", 0.8, True), ("proposed", 0.5, False)],
    ids=["proposed", "cmos", "proposed-0.5V-inf"],
)
def test_write_delay_matches_full_length(design, vdd, flips):
    cell, _, pulse, _ = _point(design, vdd)
    reference = _full_write_delay(cell, vdd, pulse)
    assert math.isfinite(reference) == flips
    _check(lambda: write_delay(cell, vdd, pulse_width=pulse), reference, stops=flips)
