"""Generation of circuit-facing lookup tables from the physics model.

This is the reproduction of the paper's extraction step: "The I-V and
C-V performance data are extracted for a range of device parameters and
operating conditions [and] stored in two dimensional lookup tables,
which are used ... to implement the circuit simulation model."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.charges import ChargeFunction, LinearCharge, SmoothStepCharge
from repro.devices.physics.geometry import TfetDesign
from repro.devices.physics.tfet_model import TfetPhysicalModel
from repro.devices.tables import CurrentTable, UniformGrid

__all__ = [
    "TfetCharges",
    "build_current_table",
    "build_charge_model",
    "sample_current_grid",
]

DEFAULT_VOLTAGE_SPAN = 1.4
"""Tables cover +/-1.4 V: V_DD up to 0.9 V plus 30 % assist headroom."""

DEFAULT_GRID_POINTS = 141

OVERLAP_CAPACITANCE_PER_UM = 4.0e-17
"""Gate overlap/fringe capacitance in F per um of width (per terminal)."""


def sample_current_grid(
    model: TfetPhysicalModel,
    voltage_span: float = DEFAULT_VOLTAGE_SPAN,
    points: int = DEFAULT_GRID_POINTS,
) -> tuple[UniformGrid, UniformGrid, np.ndarray]:
    """Sample the physics model onto a raw (V_GS, V_DS) current grid.

    At the default 141 points this takes about 2.5 ms, a quarter of a
    table build; the coefficient bake in
    :class:`~repro.devices.tables.CurrentTable` takes about 7.5 ms
    (medians over the 41 quantized scales of the +/-5 % band, 2-vCPU
    x86 VM).
    """
    vgs_grid = UniformGrid(-voltage_span, voltage_span, points)
    vds_grid = UniformGrid(-voltage_span, voltage_span, points)
    vgs = vgs_grid.points()[:, np.newaxis]
    vds = vds_grid.points()[np.newaxis, :]
    current = np.asarray(model.current_density(vgs, vds))
    return vgs_grid, vds_grid, current


def build_current_table(
    model: TfetPhysicalModel,
    voltage_span: float = DEFAULT_VOLTAGE_SPAN,
    points: int = DEFAULT_GRID_POINTS,
) -> CurrentTable:
    """Sample the physics model onto a (V_GS, V_DS) current table (A/um)."""
    vgs_grid, vds_grid, current = sample_current_grid(model, voltage_span, points)
    return CurrentTable(
        vgs_grid, vds_grid, current, shape_voltage=model.drain_saturation_voltage
    )


@dataclass(frozen=True)
class TfetCharges:
    """Per-um-width gate charge functions of the TFET.

    TFET gate charge couples predominantly to the *drain* once the
    channel inverts (the well-known enhanced Miller capacitance of
    tunneling FETs), so the channel component sits on C_gd while C_gs
    keeps only overlap/fringe charge.
    """

    cgs_per_um: ChargeFunction
    cgd_per_um: ChargeFunction


def build_charge_model(design: TfetDesign) -> TfetCharges:
    """Derive the C-V charge model from the device geometry."""
    channel_cap_per_um = (
        design.oxide_capacitance_per_area * design.channel_length * 1e-6
    )
    cgs = LinearCharge(OVERLAP_CAPACITANCE_PER_UM)
    cgd = SmoothStepCharge(
        c_low=OVERLAP_CAPACITANCE_PER_UM,
        c_high=OVERLAP_CAPACITANCE_PER_UM + channel_cap_per_um,
        v_step=0.3,
        width=0.1,
    )
    return TfetCharges(cgs_per_um=cgs, cgd_per_um=cgd)
