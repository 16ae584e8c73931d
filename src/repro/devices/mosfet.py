"""Analytic 32 nm MOSFET model (PTM-low-power-like baseline).

The paper benchmarks every TFET SRAM against a 6T CMOS SRAM simulated
with the 32 nm PTM low-power model card.  Here the baseline is an
EKV-style single-expression model: a smooth interpolation between the
subthreshold exponential and the strong-inversion square law, with
DIBL, mobility degradation and channel-length modulation.  The model is
calibrated to PTM-32LP-like terminal anchors (I_off ~ 1e-11 A/um and
I_on ~ 4e-4 A/um at 0.8 V), which is all the paper's comparisons
consume: the 60+ mV/dec swing and the 6 order-of-magnitude leakage gap
to the TFET.

Currents are densities in A/um of gate width for the n-type reference
device; polarity mirroring and width scaling happen in
:class:`repro.circuit.elements.Transistor`.

A card's parameters may also be per-device arrays
(:meth:`MosfetModel.stacked`): the EKV expressions are elementwise, so
one call evaluates devices of several cards, each bytes-equal to its
own card's call.  The assembler evaluates all of a system's MOSFET
devices, and the stacked batch all of its members', that way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from repro.constants import thermal_voltage
from repro.devices.charges import LinearCharge, SmoothStepCharge
from repro.rootfind import brentq

__all__ = [
    "MosfetParameters",
    "MosfetModel",
    "MosfetCharges",
    "calibrate_mosfet",
    "nmos_32nm",
    "pmos_32nm",
]


@dataclass(frozen=True)
class MosfetParameters:
    """EKV-style model card for the n-type reference device.

    Each field is one value, or a per-device array on a stacked card
    (:meth:`MosfetModel.stacked`).
    """

    threshold_voltage: float = 0.45
    """V_T0 in volts; set by calibration for the off-current anchor."""

    subthreshold_slope_factor: float = 1.45
    """n; gives the ~90 mV/dec swing of a 32 nm low-power device."""

    transconductance_density: float = 4.0e-4
    """2 n k_p (1 um / L) v_T^2 lumped prefactor in A/um; calibrated."""

    dibl: float = 0.06
    """Threshold shift per volt of drain bias."""

    mobility_reduction_voltage: float = 0.9
    """Overdrive scale (V) for the velocity-saturation roll-off."""

    channel_length_modulation: float = 0.08
    """Relative output-current slope per volt in saturation."""

    temperature: float = 300.0


_PROBE_OFFSETS = np.array(
    [[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]]
)[:, :, np.newaxis]
"""(V_GS, V_DS) offsets, in steps, of the five points evaluate_density
probes: the point itself, V_GS +/- step, V_DS +/- step."""
_PROBE_OFFSETS.setflags(write=False)


@dataclass(frozen=True)
class MosfetModel:
    """Terminal-current evaluation of the analytic MOSFET."""

    params: MosfetParameters = field(default_factory=MosfetParameters)

    @classmethod
    def stacked(cls, cards: Sequence["MosfetModel"]) -> "MosfetModel":
        """One card whose device ``k`` is ``cards[k]`` (single cards).

        Every parameter becomes a per-device array, except a temperature
        all the cards share, which stays one value.  The EKV expressions
        broadcast the arrays against the probed points and are
        elementwise, so ``stacked(cards).evaluate_density(vgs, vds)``
        equals, bytes for bytes, each ``cards[k].evaluate_density`` at
        ``(vgs[k], vds[k])``.  A stacked card only evaluates currents:
        the calibration helpers (:meth:`on_current` and the rest) need
        a single card.
        """
        params = [card.params for card in cards]
        columns = {
            f.name: np.array([getattr(p, f.name) for p in params])
            for f in fields(MosfetParameters)
        }
        temperature = columns["temperature"]
        if (temperature == temperature[0]).all():
            columns["temperature"] = params[0].temperature
        return cls(MosfetParameters(**columns))

    def take(self, indices: np.ndarray) -> "MosfetModel":
        """The stacked card of this stacked card's devices at ``indices``."""
        columns = {f.name: getattr(self.params, f.name) for f in fields(MosfetParameters)}
        return MosfetModel(MosfetParameters(**{
            name: value[indices] if np.ndim(value) else value
            for name, value in columns.items()
        }))

    def _forward_density(self, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Density for vds >= 0 (source-referenced)."""
        p = self.params
        vt = thermal_voltage(p.temperature)
        vth = p.threshold_voltage - p.dibl * vds
        pinch = (vgs - vth) / p.subthreshold_slope_factor

        half = 2.0 * vt
        soft = np.logaddexp(0.0, pinch / half)
        forward = soft**2
        reverse = np.logaddexp(0.0, (pinch - vds) / half) ** 2
        i_long = p.transconductance_density * (forward - reverse)

        overdrive = half * soft
        saturation = 1.0 + overdrive / p.mobility_reduction_voltage
        clm = 1.0 + p.channel_length_modulation * vds
        return i_long * clm / saturation

    def current_density(
        self, vgs: np.ndarray | float, vds: np.ndarray | float
    ) -> np.ndarray:
        """Signed drain-current density (A/um); symmetric under S/D swap.

        For V_DS < 0 source and drain swap roles: the density is the
        negated forward density at (V_GS - V_DS, -V_DS).  Each point
        evaluates only its conducting direction.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        if vgs.shape != vds.shape:
            vgs, vds = np.broadcast_arrays(vgs, vds)
        swapped = vds < 0.0
        density = self._forward_density(np.where(swapped, vgs - vds, vgs), np.abs(vds))
        result = np.where(swapped, -density, density)
        return result if result.shape else float(result)

    def evaluate_density(
        self, vgs: np.ndarray | float, vds: np.ndarray | float, step: float = 1e-5
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current density and its partial derivatives (central difference).

        The point and its four probes (V_GS +/- step, V_DS +/- step) go
        through :meth:`current_density` as one stacked ``(5, ...)``
        array.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        if vgs.shape != vds.shape:
            vgs, vds = np.broadcast_arrays(vgs, vds)
        shape = vgs.shape
        probes = np.array((vgs, vds)).reshape(2, 1, -1) + step * _PROBE_OFFSETS
        i = self.current_density(probes[0], probes[1])
        i0 = i[0]
        gm = (i[1] - i[2]) / (2.0 * step)
        gds = (i[3] - i[4]) / (2.0 * step)
        if not shape:
            return float(i0[0]), float(gm[0]), float(gds[0])
        return i0.reshape(shape), gm.reshape(shape), gds.reshape(shape)

    def on_current(self, vdd: float = 0.8) -> float:
        """Forward on-current density at V_GS = V_DS = vdd."""
        return float(np.asarray(self.current_density(vdd, vdd)))

    def off_current(self, vdd: float = 0.8) -> float:
        """Off-current density at V_GS = 0, V_DS = vdd."""
        return float(np.asarray(self.current_density(0.0, vdd)))

    def subthreshold_swing_mv_per_dec(self, vds: float = 0.8) -> float:
        """Average swing (mV/dec) over the bottom half of the subthreshold region."""
        p = self.params
        vgs = np.linspace(0.0, p.threshold_voltage / 2.0, 41)
        current = np.asarray(self.current_density(vgs, vds))
        decades = np.log10(current[-1] / current[0])
        return 1e3 * (vgs[-1] - vgs[0]) / decades


@dataclass(frozen=True)
class MosfetCharges:
    """Per-um-width capacitance model (Meyer-style partition)."""

    cgs_per_um: SmoothStepCharge
    cgd_per_um: SmoothStepCharge
    junction_per_um: LinearCharge


MOS_OXIDE_CAP_PER_AREA = 0.028
"""F/m^2 for a ~1.2 nm EOT gate stack."""

MOS_CHANNEL_LENGTH = 32e-9
MOS_OVERLAP_CAP_PER_UM = 5.0e-17
MOS_JUNCTION_CAP_PER_UM = 1.0e-16


def mosfet_charges(threshold_voltage: float) -> MosfetCharges:
    """Bias-dependent gate charges with half-channel Meyer partition."""
    channel = MOS_OXIDE_CAP_PER_AREA * MOS_CHANNEL_LENGTH * 1e-6
    half = SmoothStepCharge(
        c_low=MOS_OVERLAP_CAP_PER_UM,
        c_high=MOS_OVERLAP_CAP_PER_UM + 0.5 * channel,
        v_step=threshold_voltage,
        width=0.1,
    )
    return MosfetCharges(
        cgs_per_um=half,
        cgd_per_um=half,
        junction_per_um=LinearCharge(MOS_JUNCTION_CAP_PER_UM),
    )


@dataclass(frozen=True)
class MosfetTargets:
    """Terminal anchors for calibration at the reference supply."""

    on_current: float = 4.0e-4
    off_current: float = 1.0e-11
    vdd_ref: float = 0.8


def calibrate_mosfet(
    model: MosfetModel,
    targets: MosfetTargets | None = None,
    max_iterations: int = 30,
    relative_tolerance: float = 1e-9,
) -> MosfetModel:
    """Tune V_T0 and the transconductance prefactor to the anchors."""
    targets = targets or MosfetTargets()
    vdd = targets.vdd_ref

    for _ in range(max_iterations):
        scale = targets.on_current / model.on_current(vdd)
        model = replace(
            model,
            params=replace(
                model.params,
                transconductance_density=model.params.transconductance_density * scale,
            ),
        )

        def off_error(vth: float) -> float:
            probe = replace(model, params=replace(model.params, threshold_voltage=vth))
            return math.log(probe.off_current(vdd)) - math.log(targets.off_current)

        vth = brentq(off_error, 0.05, 1.2, xtol=1e-12)
        model = replace(model, params=replace(model.params, threshold_voltage=vth))

        on_err = abs(model.on_current(vdd) / targets.on_current - 1.0)
        off_err = abs(model.off_current(vdd) / targets.off_current - 1.0)
        if on_err < relative_tolerance and off_err < relative_tolerance:
            return model
    raise RuntimeError("MOSFET calibration did not converge")


@lru_cache(maxsize=None)
def nmos_32nm() -> MosfetModel:
    """Calibrated n-type 32 nm low-power baseline device."""
    return calibrate_mosfet(MosfetModel())


@lru_cache(maxsize=None)
def pmos_32nm() -> MosfetModel:
    """Calibrated p-type device (mirrored by the circuit element).

    The hole-mobility penalty shows up as a lower on-current anchor at
    the same off current.
    """
    return calibrate_mosfet(
        MosfetModel(), MosfetTargets(on_current=2.0e-4, off_current=1.0e-11)
    )
