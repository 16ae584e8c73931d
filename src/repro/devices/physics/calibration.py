"""Calibration of the TFET model to the paper's device anchors.

Section 2: "The gate work function is modulated to obtain an on current
of 1e-4 A/um and an off current of 1e-17 A/um."  The two free model
parameters mirror that procedure: ``flat_band_voltage`` plays the gate
work function (it places the tunneling onset, and with it the off-state
tunneling tail), and ``current_scale`` absorbs the tunneling
cross-section (it places the on current).  The SRH ``leakage_floor``
supplies the balance of the off current.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.devices.physics.tfet_model import TfetPhysicalModel
from repro.rootfind import brentq

__all__ = ["CalibrationTargets", "CalibrationError", "calibrate_tfet"]


class CalibrationError(RuntimeError):
    """Raised when the device cannot be driven to the requested anchors."""


@dataclass(frozen=True)
class CalibrationTargets:
    """I-V anchors at the reference bias (|V_DS| = V_GS = vdd_ref)."""

    on_current: float = 1.0e-4
    off_current: float = 1.0e-17
    vdd_ref: float = 1.0
    tunneling_tail_fraction: float = 0.05
    """Fraction of the off current allowed to come from the tunneling tail."""

    def __post_init__(self) -> None:
        if not 0.0 < self.tunneling_tail_fraction < 1.0:
            raise ValueError("tunneling_tail_fraction must lie in (0, 1)")
        if self.on_current <= self.off_current:
            raise ValueError("on current must exceed off current")


def _tunneling_on_component(model: TfetPhysicalModel, vdd: float) -> float:
    gate = float(np.asarray(model.gate_transfer_density(vdd)))
    return gate * float(np.asarray(model.drain_saturation_factor(vdd)))


def _tunneling_tail(model: TfetPhysicalModel, vdd: float) -> float:
    gate = float(np.asarray(model.gate_transfer_density(0.0)))
    return gate * float(np.asarray(model.drain_saturation_factor(vdd)))


def calibrate_tfet(
    model: TfetPhysicalModel,
    targets: CalibrationTargets | None = None,
    max_iterations: int = 25,
    relative_tolerance: float = 1e-6,
) -> TfetPhysicalModel:
    """Return a copy of ``model`` meeting the calibration targets.

    Alternates two one-dimensional solves: the current scale is a pure
    multiplier on the tunneling branch, and the flat-band voltage
    monotonically controls the off-state tunneling tail, so the
    alternation converges in a handful of iterations.
    """
    targets = targets or CalibrationTargets()
    vdd = targets.vdd_ref
    tail_target = targets.tunneling_tail_fraction * targets.off_current

    floor_at_ref = float(np.asarray(model._floor_density(np.asarray(vdd))))
    floor_scale = (targets.off_current - tail_target) / max(floor_at_ref, 1e-300)
    model = replace(model, leakage_floor=model.leakage_floor * floor_scale)

    for _ in range(max_iterations):
        floor_on = float(np.asarray(model._floor_density(np.asarray(vdd))))
        tunneling_target = targets.on_current - floor_on
        if tunneling_target <= 0.0:
            raise CalibrationError("leakage floor exceeds the on-current target")
        on_now = _tunneling_on_component(model, vdd)
        if on_now <= 0.0:
            raise CalibrationError("tunneling branch produces no on current")
        model = replace(model, current_scale=model.current_scale * tunneling_target / on_now)

        def tail_error(vfb: float) -> float:
            probe = replace(model, flat_band_voltage=vfb)
            return np.log(_tunneling_tail(probe, vdd)) - np.log(tail_target)

        # The bracket stays inside the source-tunneling-dominated regime:
        # outside it the ambipolar drain branch makes the tail non-monotone.
        try:
            vfb = brentq(tail_error, -1.6, -0.2, xtol=1e-10)
        except ValueError as exc:
            raise CalibrationError(
                "flat-band voltage bracket does not contain the off-current solution"
            ) from exc
        model = replace(model, flat_band_voltage=vfb)

        on_err = abs(model.on_current(vdd) / targets.on_current - 1.0)
        off_err = abs(model.off_current(vdd) / targets.off_current - 1.0)
        if on_err < relative_tolerance and off_err < relative_tolerance:
            return model

    raise CalibrationError(
        f"calibration did not converge in {max_iterations} iterations "
        f"(on error {on_err:.2e}, off error {off_err:.2e})"
    )
