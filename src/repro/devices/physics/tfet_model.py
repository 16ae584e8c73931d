"""Complete terminal-current model of the studied Si nTFET.

The model composes four mechanisms, each traceable to a statement in
Section 2 of the paper:

* **Forward band-to-band tunneling** — gate electrostatics
  (:class:`SurfacePotentialSolver`) open an energy window at the
  source junction; Kane's expression converts the window into current.
  The transfer characteristic turns on steeply (sub-60 mV/dec near
  onset) and bends at high gate bias as the surface potential pins.
* **Drain saturation** — tunneling is injection-limited, so the output
  characteristic saturates early; a smooth ``1 - exp(-V_DS/v_dsat)``
  factor with mild output conductance models it.
* **Reverse conduction** — with drain and source swapped the device is
  a gated forward-biased p-i-n diode: at low reverse bias the gate
  still modulates the current, but as |V_DS| approaches 1 V the diode
  injection takes over, "the gate has lost control over the drain
  current and the TFET does not behave as a transistor" (Fig. 2(b)).
  This branch is what makes outward access transistors burn 5–9 orders
  of magnitude more static power.
* **Leakage floor** — SRH generation sets the 1e-17 A/um off current.

Currents are densities in A/um of device width; drain current is
positive for forward conduction (nTFET: drain to source).  The pTFET
is the exact mirror, built in :mod:`repro.devices.tfet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import thermal_voltage
from repro.devices.physics.electrostatics import SurfacePotentialSolver
from repro.devices.physics.geometry import TfetDesign
from repro.devices.physics.kane import KaneParameters, tunneling_current_density

__all__ = ["ReverseBranchParameters", "TfetPhysicalModel"]


@dataclass(frozen=True)
class ReverseBranchParameters:
    """Semi-empirical gated p-i-n branch for reverse (swapped) bias.

    The diode injection is represented by a quadratic-log current fit
    through three anchors (A/um at volts of reverse bias), matching the
    orders-of-magnitude structure the paper reports for outward access
    transistors: ~4 orders above the inward cell at 0.5 V, ~5 at 0.6 V,
    ~9 at 0.8 V, and near on-current magnitude at 1 V.
    """

    anchors: tuple[tuple[float, float], ...] = (
        (0.5, 5e-13),
        (0.8, 5e-8),
        (1.0, 2e-5),
    )
    gate_fade_voltage: float = 0.10
    """Reverse-bias scale over which the gate loses control.

    The gated component starts at the forward characteristic (the
    junction conductance must be single-valued at V_DS = 0, and the
    paper notes reverse current is comparable to the forward on current
    "for V_DS close to 1 V or 0 V") and decays exponentially with
    reverse bias — by a few hundred millivolts the gate has lost
    control, as Fig. 2(b) shows.
    """

    def log_polynomial(self) -> np.ndarray:
        """Coefficients of ln(J) = c2 v^2 + c1 v + c0 through the anchors."""
        volts = np.array([v for v, _ in self.anchors])
        logs = np.log(np.array([j for _, j in self.anchors]))
        return np.polyfit(volts, logs, 2)


@dataclass(frozen=True)
class TfetPhysicalModel:
    """Physics-based nTFET current-density model (A/um)."""

    design: TfetDesign = field(default_factory=TfetDesign)
    kane: KaneParameters = field(default_factory=lambda: KaneParameters(exponent_field=3.5e9))
    reverse: ReverseBranchParameters = field(default_factory=ReverseBranchParameters)

    flat_band_voltage: float = -0.68
    """Gate work-function knob; set by calibration."""

    current_scale: float = 1.0e-18
    """Kane-rate to A/um conversion; set by calibration."""

    tunnel_onset_potential: float = 1.0
    """Surface potential (V) at which the tunneling window opens."""

    occupation_width: float = 0.012
    """Fermi-tail width (V) of the tunneling window occupation."""

    channel_qfl: float = 0.8
    """Channel electron quasi-Fermi level (V) used by the electrostatics."""

    drain_saturation_voltage: float = 0.10
    """v_dsat (V): tunneling output curves saturate early."""

    output_conductance_slope: float = 0.05
    """Relative output-current slope per volt in saturation."""

    leakage_floor: float = 1.0e-17
    """SRH generation floor (A/um) at |V_DS| = 1 V; set by calibration."""

    ambipolar_suppression: float = 3.0e-5
    """Drain-side tunneling suppression from the 2 nm gate underlap."""

    ambipolar_onset_potential: float = -0.25
    """Surface potential below which drain-side tunneling opens."""

    temperature: float = 300.0

    def solver(self) -> SurfacePotentialSolver:
        """The gate-electrostatics solver configured for this device."""
        return SurfacePotentialSolver(
            self.design,
            flat_band_voltage=self.flat_band_voltage,
            channel_qfl=self.channel_qfl,
            temperature=self.temperature,
        )

    # -- forward branch -----------------------------------------------------

    def gate_transfer_density(self, vgs: np.ndarray | float) -> np.ndarray:
        """Saturated forward tunneling density (A/um) vs gate bias.

        This is the source-junction component only; drain saturation and
        leakage floors are applied in :meth:`current_density`.
        """
        vgs = np.asarray(vgs, dtype=float)
        psi = np.asarray(self.solver().surface_potential(vgs))
        window = psi - self.tunnel_onset_potential
        forward = tunneling_current_density(
            window,
            self.design.natural_length,
            self.design.semiconductor.bandgap_ev,
            self.kane,
            occupation_width=self.occupation_width,
            current_scale=self.current_scale,
        )
        ambipolar_window = self.ambipolar_onset_potential - psi
        ambipolar = self.ambipolar_suppression * tunneling_current_density(
            ambipolar_window,
            self.design.natural_length,
            self.design.semiconductor.bandgap_ev,
            self.kane,
            occupation_width=self.occupation_width,
            current_scale=self.current_scale,
        )
        return forward + ambipolar

    def drain_saturation_factor(self, vds: np.ndarray | float) -> np.ndarray:
        """Smooth output-characteristic factor for V_DS >= 0."""
        vds = np.maximum(np.asarray(vds, dtype=float), 0.0)
        onset = 1.0 - np.exp(-vds / self.drain_saturation_voltage)
        return onset * (1.0 + self.output_conductance_slope * vds)

    def _floor_density(self, vds_magnitude: np.ndarray) -> np.ndarray:
        """SRH generation leakage, smooth through zero bias."""
        vt = thermal_voltage(self.temperature)
        shape = 1.0 - np.exp(-vds_magnitude / (2.0 * vt))
        ramp = (1.0 + 0.2 * (vds_magnitude - 1.0)) / 1.0
        reference = (1.0 - np.exp(-1.0 / (2.0 * vt))) * 1.0
        return self.leakage_floor * shape * np.maximum(ramp, 0.2) / reference

    # -- reverse branch -----------------------------------------------------

    def reverse_density(
        self, vgs: np.ndarray | float, reverse_bias: np.ndarray | float
    ) -> np.ndarray:
        """Magnitude of the reverse current (A/um) for swapped terminals.

        ``reverse_bias`` is the positive magnitude of the (negative)
        drain-source voltage.
        """
        return self._reverse_density(self.gate_transfer_density(vgs), reverse_bias)

    def _reverse_density(
        self, transfer: np.ndarray, reverse_bias: np.ndarray | float
    ) -> np.ndarray:
        """:meth:`reverse_density` from a precomputed
        :meth:`gate_transfer_density` (broadcast against ``reverse_bias``)."""
        v = np.maximum(np.asarray(reverse_bias, dtype=float), 0.0)
        vt = thermal_voltage(self.temperature)

        c2, c1, c0 = self.reverse.log_polynomial()
        diode = np.exp(np.clip(c2 * v * v + c1 * v + c0, -300.0, 60.0))
        diode = diode * (1.0 - np.exp(-v / vt))

        gated = (
            transfer
            * self.drain_saturation_factor(v)
            * np.exp(-v / self.reverse.gate_fade_voltage)
        )
        return diode + gated + self._floor_density(v)

    # -- combined terminal current -------------------------------------------

    def current_density(
        self, vgs: np.ndarray | float, vds: np.ndarray | float
    ) -> np.ndarray:
        """Signed drain-current density (A/um) at (V_GS, V_DS).

        Positive V_DS is the forward (intended) direction; negative
        V_DS is the reverse condition of Fig. 2(b).

        Each factor is evaluated on its own un-broadcast operand and the
        branches broadcast only when combined, so a (V_GS column, V_DS
        row) table grid solves the gate electrostatics once per V_GS.
        That is bit-identical to solving on the broadcast grid: the
        solver works point by point except for its stopping test, a max
        over all points, and a grid repeating the same gate voltages has
        the same max as those voltages alone.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        transfer = self.gate_transfer_density(vgs)

        forward = (
            transfer * self.drain_saturation_factor(vds)
            + self._floor_density(np.maximum(vds, 0.0))
        )
        reverse = self._reverse_density(transfer, -vds)
        result = np.where(vds >= 0.0, forward, -reverse)
        return result if result.shape else float(result)

    # -- headline metrics -----------------------------------------------------

    def on_current(self, vdd: float = 1.0) -> float:
        """Forward on-current density at V_GS = V_DS = vdd."""
        return float(np.asarray(self.current_density(vdd, vdd)))

    def off_current(self, vdd: float = 1.0) -> float:
        """Forward off-current density at V_GS = 0, V_DS = vdd."""
        return float(np.asarray(self.current_density(0.0, vdd)))

    def subthreshold_swing_mv_per_dec(
        self, vgs_low: float = 0.1, vgs_high: float = 0.7, vds: float = 1.0, points: int = 61
    ) -> float:
        """Minimum local swing (mV/dec) over the turn-on region."""
        vgs = np.linspace(vgs_low, vgs_high, points)
        current = np.asarray(self.current_density(vgs, vds))
        decades = np.diff(np.log10(np.maximum(current, 1e-30)))
        steepest = np.max(decades / np.diff(vgs))
        if steepest <= 0.0:
            raise ValueError("transfer characteristic is not increasing in the window")
        return 1e3 / steepest
