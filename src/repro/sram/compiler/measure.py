"""Transient measurement of compiled critical paths.

:func:`measure_array` runs one compiled path through the transient
solver (sparse MNA auto-selected once the composed netlist crosses the
64-unknown threshold) and extracts the scenario's figures of merit:

* **read** — the delay decomposition ``address edge -> wordline at the
  far cell -> sense-threshold bitline split -> resolved sense-amp
  output``, plus the access energy;
* **write** — address edge to the storage-node crossing of the far
  cell, plus the access energy;
* **half_select** — the disturb margin of the same-row victim cell
  (minimum ``q - qb`` separation during the access) and whether it
  flipped.

:func:`compare_array` is the dual-source validation behind fig11 and
tab_area: the same geometry evaluated analytically
(:func:`repro.sram.array.plan_array`) and by compiled-path simulation,
with the agreement ratios callers gate against documented tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.energy import delivered_energy, operation_energy
from repro.analysis.timing import SENSE_THRESHOLD
from repro.circuit.sparse import selects_sparse
from repro.circuit.transient import TransientOptions, simulate_transient
from repro.sram.array import ArrayGeometry, _BitlineScaledCell, plan_array
from repro.sram.assist import Assist
from repro.sram.compiler.census import census_macro_area
from repro.sram.compiler.column import CompiledArray, CompileOptions, compile_array

__all__ = ["ArrayMeasurement", "ArrayComparison", "measure_array", "compare_array"]


@dataclass(frozen=True)
class ArrayMeasurement:
    """Figures of merit of one simulated critical path."""

    scenario: str
    rows: int
    columns: int
    vdd: float
    unknowns: int
    sparse_engaged: bool
    """Whether the auto-selection served this netlist sparse MNA."""

    wordline_delay: float
    """Address edge to the wordline reaching half swing at the far cell."""

    access_delay: float
    """Address edge to the scenario's completion event: sense-threshold
    bitline split (read), storage-node crossing (write/half_select).
    ``inf`` when the event never happens."""

    resolved_delay: float
    """Read only: address edge to the sense-amp outputs separating by
    half V_DD (``inf`` when unresolved / no sense amp); ``nan`` for
    writes."""

    energy: float
    """Whole-path access energy (J) — cell, decoder, precharge,
    replica, sense amp — hold-leakage baseline subtracted."""

    cell_energy: float
    """Energy drawn through the accessed cell's dedicated rail sources
    alone (J) — the number comparable to the analytic cell-level model."""

    disturb_margin: float
    """Half-select victim's minimum ``q - qb`` during the access (V);
    ``nan`` when no victim was compiled."""

    victim_flipped: bool
    """Whether the half-selected victim lost its state."""

    @property
    def completed(self) -> bool:
        return math.isfinite(self.access_delay)


@dataclass(frozen=True)
class ArrayComparison:
    """Analytic vs compiled-simulation agreement on one geometry."""

    geometry: ArrayGeometry
    vdd: float
    analytic_access_time: float
    simulated_access_time: float
    analytic_energy: float
    """Cell-level read energy from the analytic plan (all bench sources)."""

    simulated_energy: float
    """Whole compiled path, periphery included — expect this well above
    the analytic number; the apples-to-apples pair is the next two."""

    analytic_cell_energy: float
    """Rails-only energy of the analytic lumped-bitline cell bench."""

    simulated_cell_energy: float
    """Rails-only energy of the accessed cell inside the compiled path."""

    analytic_area_um2: float
    census_area_um2: float
    measurement: ArrayMeasurement | None = None
    """The simulated side's full measurement (unknown count, sparse
    engagement, delay decomposition)."""

    @property
    def delay_ratio(self) -> float:
        return self.simulated_access_time / self.analytic_access_time

    @property
    def energy_ratio(self) -> float:
        return self.simulated_energy / self.analytic_energy

    @property
    def cell_energy_ratio(self) -> float:
        return self.simulated_cell_energy / self.analytic_cell_energy

    @property
    def area_ratio(self) -> float:
        return self.census_area_um2 / self.analytic_area_um2


def _threshold_crossing(times, signal, threshold, after):
    """First time ``signal >= threshold`` holds, linearly interpolated;
    ``inf`` when it never does."""
    mask = times >= after
    t = times[mask]
    s = signal[mask]
    above = np.nonzero(s >= threshold)[0]
    if above.size == 0:
        return math.inf
    k = int(above[0])
    if k == 0:
        return float(t[0])
    frac = (threshold - s[k - 1]) / (s[k] - s[k - 1])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def measure_array(
    compiled: CompiledArray,
    settle: float = 1.0e-9,
    options: TransientOptions | None = None,
) -> ArrayMeasurement:
    """Simulate one compiled path and extract its figures of merit."""
    options = options or TransientOptions()
    bench = compiled.bench
    t_addr = bench.notes["t_addr"]
    t_stop = bench.settle_stop(settle)
    result = simulate_transient(
        bench.circuit, t_stop,
        initial_conditions=bench.initial_conditions,
        options=options,
    )
    probes = compiled.probes
    cell, vdd = compiled.cell, compiled.vdd

    # Wordline arrival at the far cell: half swing toward the active level.
    wl_sig = np.abs(result.voltage(probes["wl_far"]) - cell.wl_inactive(vdd))
    half_swing = 0.5 * abs(cell.wl_active(vdd) - cell.wl_inactive(vdd))
    t_wl = _threshold_crossing(result.times, wl_sig, half_swing, t_addr)
    wordline_delay = t_wl - t_addr if math.isfinite(t_wl) else math.inf

    if compiled.scenario == "read":
        split = np.abs(
            result.voltage(probes["bl_near"]) - result.voltage(probes["blb_near"])
        )
        t_event = _threshold_crossing(result.times, split, SENSE_THRESHOLD, t_addr)
        resolved = math.nan
        if "sa_out" in probes:
            sa_split = np.abs(
                result.voltage(probes["sa_out"]) - result.voltage(probes["sa_outb"])
            )
            t_res = _threshold_crossing(result.times, sa_split, 0.5 * vdd, t_addr)
            resolved = t_res - t_addr if math.isfinite(t_res) else math.inf
    else:
        t_event = result.crossing_time(probes["q"], probes["qb"], after=t_addr)
        t_event = math.inf if t_event is None else t_event
        resolved = math.nan
    access_delay = t_event - t_addr if math.isfinite(t_event) else math.inf

    # Incremental access energy (the operation_energy recipe, applied to
    # the already-computed result), whole-path and cell-rails-only.
    quiet_end = min(t_addr * 0.2, 5e-11)

    def _incremental(source_names=None):
        gross = delivered_energy(result, 0.0, t_stop, source_names=source_names)
        leak = delivered_energy(
            result, 0.0, quiet_end, source_names=source_names
        ) / quiet_end
        return gross - leak * t_stop

    energy = _incremental()
    cell_energy = _incremental({"sel_vddc", "sel_vgnd"})

    disturb = math.nan
    flipped = False
    if "hs_q" in probes:
        disturb = result.min_difference(
            probes["hs_q"], probes["hs_qb"], t_addr, bench.window.t_off
        )
        flipped = result.final(probes["hs_q"]) < result.final(probes["hs_qb"])

    size = compiled.unknown_count
    return ArrayMeasurement(
        scenario=compiled.scenario,
        rows=compiled.geometry.rows,
        columns=compiled.geometry.columns,
        vdd=vdd,
        unknowns=size,
        sparse_engaged=selects_sparse(
            size, options.solver.matrix_format, options.solver.sparse_threshold
        ),
        wordline_delay=wordline_delay,
        access_delay=access_delay,
        resolved_delay=resolved,
        energy=energy,
        cell_energy=cell_energy,
        disturb_margin=disturb,
        victim_flipped=flipped,
    )


def compare_array(
    cell,
    geometry: ArrayGeometry,
    vdd: float,
    assist: Assist | None = None,
    options: CompileOptions | None = None,
    transient_options: TransientOptions | None = None,
) -> ArrayComparison:
    """Dual-source evaluation of a read on one geometry.

    The analytic side is :func:`repro.sram.array.plan_array` (lumped
    bitline, flat decode time, overhead-fraction area); the simulated
    side is the compiled critical path and its device census.  The two
    read delays measure the *same* event — address edge to a
    ``SENSE_THRESHOLD`` bitline split — so the ratio isolates genuine
    modelling differences (distributed RC, real decode chain, explicit
    neighbours), not definition mismatches.
    """
    options = options or CompileOptions()
    estimate = plan_array(
        cell, geometry, vdd, read_assist=assist, read_duration=options.duration
    )
    # Rails-only analytic energy: the same lumped-bitline bench the
    # plan simulated, integrated over the cell rail sources alone so it
    # pairs with the compiled path's dedicated-rail measurement.
    rails_bench = _BitlineScaledCell(cell, geometry.bitline_capacitance).read_testbench(
        vdd, assist=assist, duration=options.duration
    )
    analytic_cell_energy = operation_energy(
        rails_bench, options=transient_options, source_names={"vddc", "vgnd"}
    )
    compiled = compile_array(
        cell, geometry, vdd, scenario="read", assist=assist, options=options
    )
    measured = measure_array(compiled, options=transient_options)
    areas = census_macro_area(cell, geometry, compiled.census)
    return ArrayComparison(
        geometry=geometry,
        vdd=vdd,
        analytic_access_time=estimate.read_access_time,
        simulated_access_time=measured.access_delay,
        analytic_energy=estimate.read_energy_per_access,
        simulated_energy=measured.energy,
        analytic_cell_energy=analytic_cell_energy,
        simulated_cell_energy=measured.cell_energy,
        analytic_area_um2=estimate.area_um2,
        census_area_um2=areas["total_um2"],
        measurement=measured,
    )
