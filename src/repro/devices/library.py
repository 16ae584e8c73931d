"""Cached device library shared by cells, experiments, and benchmarks.

The nominal TFET is calibrated once (work function + cross-section to
the paper's I_on/I_off anchors) and then *perturbed* — never
recalibrated — for process variation: a fab does not re-tune the work
function per die, so a thickness shift must show up as a device shift.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.devices.mosfet import MosfetModel, nmos_32nm, pmos_32nm
from repro.devices.physics.calibration import CalibrationTargets, calibrate_tfet
from repro.devices.physics.tablegen import (
    build_charge_model,
    sample_current_grid,
)
from repro.devices.physics.tfet_model import TfetPhysicalModel
from repro.devices.tables import CurrentTable
from repro.devices.tfet import TfetTableModel
from repro.devices.variation import quantize_scale

__all__ = [
    "nominal_tfet_physics",
    "tfet_device",
    "nmos_device",
    "pmos_device",
    "clear_device_cache",
]


@lru_cache(maxsize=None)
def nominal_tfet_physics() -> TfetPhysicalModel:
    """The calibrated nominal Si TFET (I_on 1e-4, I_off 1e-17 A/um)."""
    return calibrate_tfet(TfetPhysicalModel(), CalibrationTargets())


@lru_cache(maxsize=None)
def _tfet_device_quantized(oxide_scale: float, table_points: int) -> TfetTableModel:
    nominal = nominal_tfet_physics()
    design = nominal.design.with_oxide_scale(oxide_scale)
    perturbed = replace(nominal, design=design)
    grid_v, grid_d, current = sample_current_grid(perturbed, points=table_points)
    table = CurrentTable(
        grid_v, grid_d, current, shape_voltage=perturbed.drain_saturation_voltage
    )
    charges = build_charge_model(design)
    return TfetTableModel(table=table, charges=charges)


def tfet_device(oxide_scale: float = 1.0, table_points: int = 141) -> TfetTableModel:
    """A table-backed TFET at the given gate-oxide thickness scale.

    Scales are quantized so Monte-Carlo sampling reuses cached tables.
    """
    return _tfet_device_quantized(quantize_scale(oxide_scale), table_points)


def nmos_device() -> MosfetModel:
    """The calibrated 32 nm low-power n-type MOSFET baseline."""
    return nmos_32nm()


def pmos_device() -> MosfetModel:
    """The calibrated 32 nm low-power p-type MOSFET baseline."""
    return pmos_32nm()


def clear_device_cache() -> None:
    """Drop all cached devices (mainly for tests that tweak globals)."""
    nominal_tfet_physics.cache_clear()
    _tfet_device_quantized.cache_clear()
    nmos_32nm.cache_clear()
    pmos_32nm.cache_clear()
