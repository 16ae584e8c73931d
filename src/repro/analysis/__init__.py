"""Cell-level analyses: stability, timing, power, area, Monte-Carlo,
static noise margins, access energy, leakage attribution, retention."""

from repro.analysis.area import AreaModel, cell_area_um2
from repro.analysis.energy import read_energy, write_energy
from repro.analysis.leakage import LeakageBreakdown, leakage_breakdown
from repro.analysis.montecarlo import MonteCarloResult
from repro.analysis.power import hold_power, static_power
from repro.analysis.retention import retention_voltage
from repro.analysis.snm import butterfly_curves, static_noise_margin
from repro.analysis.stability import (
    WlCritSearch,
    critical_wordline_pulse,
    dynamic_read_noise_margin,
    write_flips_cell,
)
from repro.analysis.timing import read_delay, write_delay

__all__ = [
    "AreaModel",
    "cell_area_um2",
    "read_energy",
    "write_energy",
    "LeakageBreakdown",
    "leakage_breakdown",
    "MonteCarloResult",
    "hold_power",
    "static_power",
    "retention_voltage",
    "butterfly_curves",
    "static_noise_margin",
    "WlCritSearch",
    "critical_wordline_pulse",
    "dynamic_read_noise_margin",
    "write_flips_cell",
    "read_delay",
    "write_delay",
]
