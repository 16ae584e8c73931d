"""Asymmetric 6T TFET SRAM (after Singh et al., ASP-DAC 2010).

The comparison cell of Section 5.  Key properties the paper relies on,
all reproduced here:

* **asymmetric access pair** — the q-side access transistor is an
  *outward* nTFET (can only discharge q), the qb-side an *inward*
  nTFET (can only charge qb), so a write that flips q = 1 -> 0 drives
  both access devices simultaneously;
* **built-in V_GND-raising write assist** — the cell ground is raised
  during every write pulse ("a modified version of raising WA");
* **no separatrix / undefined WL_crit** — the assisted write collapses
  the cell rather than racing a separatrix, so the paper excludes the
  asymmetric cell from the WL_crit comparison (we raise on attempts to
  bisect it);
* **static-power penalty** — with both bitlines clamped at V_DD in
  hold, the outward access transistor is reverse-biased whenever q
  stores 0, costing ~4 orders of magnitude at V_DD = 0.5 V.
"""

from __future__ import annotations

from repro.circuit.waveforms import Pulse, Waveform
from repro.devices.library import tfet_device
from repro.sram.assist import Assist
from repro.sram.base import SixTCellBase
from repro.sram.cell import CellBuilder, CellSizing, TfetDeviceSet

__all__ = ["AsymTfet6TCell"]

BUILTIN_ASSIST_FRACTION = 0.3


class AsymTfet6TCell(SixTCellBase):
    """Asymmetric 6T TFET cell with built-in ground-raising write assist."""

    name = "asym 6T TFET"

    DEFAULT_SIZING = CellSizing(access_width=0.06, pulldown_width=0.1, pullup_width=0.1)
    """As-published sizing: the cell targets 0.3 V operation, so its
    access devices are narrow relative to the storage core."""

    def __init__(
        self,
        sizing: CellSizing | None = None,
        devices: TfetDeviceSet | None = None,
    ):
        super().__init__(sizing or self.DEFAULT_SIZING)
        self.devices = devices or TfetDeviceSet.uniform(tfet_device())

    def _build_core(self, builder: CellBuilder) -> None:
        s = self.sizing
        d = self.devices
        builder.add_device("m1_pd", "q", "qb", "vgnd", d.pulldown_left, "n", s.pulldown_width)
        builder.add_device("m2_pu", "q", "qb", "vddc", d.pullup_left, "p", s.pullup_width)
        builder.add_device("m4_pd", "qb", "q", "vgnd", d.pulldown_right, "n", s.pulldown_width)
        builder.add_device("m5_pu", "qb", "q", "vddc", d.pullup_right, "p", s.pullup_width)
        # Outward nTFET on q (drain at the storage node), inward nTFET
        # on qb (drain at the bitline).
        builder.add_device("m3_ax", "q", "wl", "bl", d.access_left, "n", s.access_width)
        builder.add_device("m6_ax", "blb", "wl", "qb", d.access_right, "n", s.access_width)

    def wl_inactive(self, vdd: float) -> float:
        return 0.0

    def wl_active(self, vdd: float) -> float:
        return vdd

    def _write_sources(
        self, vdd: float, pulse_width: float, assist: Assist | None, t_on: float
    ) -> dict[str, Waveform]:
        """Write with the cell's built-in ground-raising assist.

        External assist techniques do not apply to this cell (the
        paper compares it as-published).
        """
        if assist is not None:
            raise ValueError("the asymmetric cell carries its own built-in write assist")
        sources = super()._write_sources(vdd, pulse_width, None, t_on)
        sources["vgnd"] = Pulse(
            0.0, BUILTIN_ASSIST_FRACTION * vdd, t_start=t_on, width=pulse_width
        )
        return sources
