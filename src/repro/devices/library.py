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
from repro.devices.tables import CurrentTable, UniformGrid
from repro.devices.tfet import TfetTableModel
from repro.devices.variation import quantize_scale

__all__ = [
    "nominal_tfet_physics",
    "tfet_device",
    "nmos_device",
    "pmos_device",
    "clear_device_cache",
    "set_table_cache",
    "table_cache",
]

_table_cache = None
"""Optional :class:`repro.engine.cache.DeviceTableCache`; see
:func:`set_table_cache`."""


def set_table_cache(cache) -> None:
    """Install (or with ``None`` remove) an on-disk table cache.

    The batch engine's workers call this from their initializer so that
    the physics sampling behind :func:`tfet_device` is paid once per
    unique quantized scale across the whole worker pool rather than
    once per process.  Per 141x141 table, sampling takes about 2.5 ms
    and a load about 1.5 ms; the coefficient bake, about 7.5 ms, follows
    either (2-vCPU x86 VM).  The in-process ``lru_cache`` stays in front
    of the disk layer, so installing a cache never slows the hot path.
    """
    global _table_cache
    _table_cache = cache


def table_cache():
    """The installed on-disk table cache, or ``None``."""
    return _table_cache


@lru_cache(maxsize=None)
def nominal_tfet_physics() -> TfetPhysicalModel:
    """The calibrated nominal Si TFET (I_on 1e-4, I_off 1e-17 A/um)."""
    return calibrate_tfet(TfetPhysicalModel(), CalibrationTargets())


@lru_cache(maxsize=None)
def _tfet_device_quantized(oxide_scale: float, table_points: int) -> TfetTableModel:
    nominal = nominal_tfet_physics()
    design = nominal.design.with_oxide_scale(oxide_scale)
    perturbed = replace(nominal, design=design)
    table = _current_table_cached(perturbed, oxide_scale, table_points)
    charges = build_charge_model(design)
    return TfetTableModel(table=table, charges=charges)


def _current_table_cached(model, oxide_scale: float, table_points: int) -> CurrentTable:
    """Build the current table, going through the disk cache if installed.

    Cache entries hold the raw sampled grid; interpolant construction is
    repeated on load (deterministic), so hits are bit-identical to fresh
    builds.
    """
    cache = _table_cache
    if cache is None:
        grid_v, grid_d, current = sample_current_grid(model, points=table_points)
        return CurrentTable(
            grid_v, grid_d, current, shape_voltage=model.drain_saturation_voltage
        )
    payload = cache.load(oxide_scale, table_points)
    if payload is not None:
        vgs = payload["vgs"]
        vds = payload["vds"]
        return CurrentTable(
            UniformGrid(float(vgs[0]), float(vgs[1]), int(vgs[2])),
            UniformGrid(float(vds[0]), float(vds[1]), int(vds[2])),
            payload["current"],
            shape_voltage=payload["shape_voltage"],
        )
    grid_v, grid_d, current = sample_current_grid(model, points=table_points)
    cache.store(
        oxide_scale,
        table_points,
        current,
        (grid_v.start, grid_v.stop, grid_v.count),
        (grid_d.start, grid_d.stop, grid_d.count),
        model.drain_saturation_voltage,
    )
    return CurrentTable(
        grid_v, grid_d, current, shape_voltage=model.drain_saturation_voltage
    )


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
