"""The characterized metrics: what each one measures and how.

Each :class:`MetricDef` carries the measurement procedure, the unit,
the interpolation transform (power and delay span decades, so the
query layer interpolates them in log10 space), and a ``version`` tag.
The version participates in the entry fingerprint: bump it whenever
the measurement *procedure* changes (different search bounds, windows,
thresholds), and every stored value produced by the old procedure is
transparently invalidated on the next build — the solver and device
fingerprints cover everything below this layer.

``evaluate_metric`` is the single cell-level measurement: the build
workers, the experiments' serve-or-simulate reads
(:func:`repro.char.query.metric_reader`) and ``repro cell`` all call
it.  It is a pure function of the grid-point coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MetricDef", "METRICS", "evaluate_metric"]


@dataclass(frozen=True)
class MetricDef:
    """One characterized figure of merit."""

    name: str
    unit: str
    description: str
    version: int = 1
    transform: str = "linear"
    """``"linear"`` or ``"log"`` — the space the query layer
    interpolates in.  Log metrics are strictly positive when finite."""


METRICS: dict[str, MetricDef] = {
    "hold_power": MetricDef(
        "hold_power", "W", "static (hold) power per cell", transform="log"
    ),
    "drnm": MetricDef(
        "drnm", "V", "dynamic read noise margin (canonical read assist)"
    ),
    "snm": MetricDef("snm", "V", "static (butterfly) read noise margin"),
    "wl_crit": MetricDef(
        "wl_crit", "s",
        "critical wordline pulse (inf when unwritable)", transform="log",
    ),
    "read_delay": MetricDef(
        "read_delay", "s",
        "wordline-to-sense-threshold read delay", transform="log",
    ),
    "write_delay": MetricDef(
        "write_delay", "s",
        "wordline-to-storage-crossing write delay", transform="log",
    ),
    "read_energy": MetricDef(
        "read_energy", "J", "energy of one read access", transform="log"
    ),
    "write_energy": MetricDef(
        "write_energy", "J", "energy of one write access", transform="log"
    ),
}

WL_CRIT_UPPER_BOUND = 8.0e-9
"""Bisection upper bound for ``wl_crit`` (Fig. 12's search window)."""


def evaluate_metric(
    metric: str, design_name: str, vdd: float,
    beta: float | None = None, corner: str = "tt",
) -> float:
    """Simulate one metric at one grid point.

    Returns a float; ``inf`` is data (an unwritable cell's ``wl_crit``,
    a read that never develops).  Raises on solver failure — the build
    layer records that as a structured failed entry.
    """
    from repro.analysis.power import hold_power
    from repro.analysis.snm import static_noise_margin
    from repro.analysis.stability import (
        WlCritSearch,
        critical_wordline_pulse,
        dynamic_read_noise_margin,
    )
    from repro.analysis.timing import read_delay, write_delay
    from repro.analysis.energy import read_energy, write_energy
    from repro.char.designs import DESIGNS, build_cell, delay_windows

    if metric not in METRICS:
        known = ", ".join(sorted(METRICS))
        raise ValueError(f"unknown metric {metric!r}; known: {known}")
    design = DESIGNS[design_name]
    if metric not in design.metrics:
        raise ValueError(f"metric {metric!r} is undefined for design {design_name!r}")
    cell, assist = build_cell(design_name, beta=beta, corner=corner)
    pulse, duration = delay_windows(design, vdd)

    if metric == "hold_power":
        return hold_power(cell, vdd, average_states=design.hold_average_states)
    if metric == "drnm":
        return dynamic_read_noise_margin(cell.read_testbench(vdd, assist=assist))
    if metric == "snm":
        return static_noise_margin(cell, vdd)
    if metric == "wl_crit":
        return critical_wordline_pulse(
            cell, vdd, search=WlCritSearch(upper_bound=WL_CRIT_UPPER_BOUND)
        )
    if metric == "read_delay":
        return read_delay(cell, vdd, assist=assist, duration=duration)
    if metric == "write_delay":
        return write_delay(cell, vdd, pulse_width=pulse)
    if metric == "read_energy":
        return read_energy(cell, vdd, assist=assist, duration=duration)
    if metric == "write_energy":
        return write_energy(cell, vdd, pulse_width=pulse)
    raise AssertionError(f"unhandled metric {metric!r}")
