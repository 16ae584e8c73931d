"""7T TFET SRAM with a decoupled read port (after Kim et al., ISLPED 2009).

The second comparison cell of Section 5.  Structure reproduced from the
paper's description:

* the storage core uses **outward nTFET write access** transistors on a
  dedicated write wordline/bitline pair (``wwl``, ``wbl``/``wblb``) —
  outward devices discharge the node storing 1, which is how the write
  completes;
* the **write bitlines are held at 0 V during hold**, so the outward
  access transistors are never reverse-biased and the cell keeps the
  TFET leakage floor (this is the paper's explanation for why the 7T
  avoids the asymmetric cell's static-power penalty);
* a **single-transistor read buffer** (the 7th device) discharges a
  separate read bitline ``rbl`` through a read source line ``rsl`` that
  is pulled low during reads, leaving the storage nodes untouched —
  hence the cell's high read margin, at a 10-15 % area cost.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import Constant, Pulse, Waveform
from repro.devices.charges import LinearCharge
from repro.devices.library import tfet_device
from repro.sram.assist import AccessWindow, Assist
from repro.sram.cell import CellBuilder, CellSizing, TfetDeviceSet
from repro.sram.testbench import (
    BITLINE_CAPACITANCE,
    DEFAULT_ACCESS_START,
    Testbench,
    pulse_width_factory,
)

__all__ = ["Tfet7TCell"]


class Tfet7TCell:
    """7T TFET cell with separate write and read ports."""

    name = "7T TFET"

    DEFAULT_SIZING = CellSizing(access_width=0.12, pulldown_width=0.1, pullup_width=0.09)
    """Write access must overpower the pull-up: with outward access the
    write contest is access-vs-pull-up (as in a CMOS cell), so the 7T
    is sized with wide write access and a weak pull-up."""

    def __init__(
        self,
        sizing: CellSizing | None = None,
        devices: TfetDeviceSet | None = None,
        read_buffer_width: float | None = None,
    ):
        self.sizing = sizing or self.DEFAULT_SIZING
        self.devices = devices or TfetDeviceSet.uniform(tfet_device())
        if self.devices.read_buffer is None:
            raise ValueError("the 7T cell needs a read-buffer device card")
        self.read_buffer_width = read_buffer_width or self.sizing.access_width

    def transistor_count(self) -> int:
        return 7

    # -- construction -----------------------------------------------------------

    def _new_circuit(self, label: str) -> Circuit:
        circuit = Circuit(f"{self.name} {label}")
        builder = CellBuilder(circuit)
        s = self.sizing
        d = self.devices
        builder.add_device("m1_pd", "q", "qb", "vgnd", d.pulldown_left, "n", s.pulldown_width)
        builder.add_device("m2_pu", "q", "qb", "vddc", d.pullup_left, "p", s.pullup_width)
        builder.add_device("m4_pd", "qb", "q", "vgnd", d.pulldown_right, "n", s.pulldown_width)
        builder.add_device("m5_pu", "qb", "q", "vddc", d.pullup_right, "p", s.pullup_width)
        # Outward write access: drain at the storage node, source at the
        # write bitline, so the device can only pull the node down.
        builder.add_device("m3_wax", "q", "wwl", "wbl", d.access_left, "n", s.access_width)
        builder.add_device("m6_wax", "qb", "wwl", "wblb", d.access_right, "n", s.access_width)
        # Read buffer: discharges rbl into rsl when q stores 1 and rsl
        # is pulled low.
        builder.add_device(
            "m7_rd", "rbl", "q", "rsl", d.read_buffer, "n", self.read_buffer_width
        )
        builder.add_storage_wire_caps()
        return circuit

    def _storage_ic(self, vdd: float) -> dict[str, float]:
        return {"q": vdd, "qb": 0.0, "vddc": vdd, "vgnd": 0.0}

    def hold_testbench(self, vdd: float, stored_one: bool = True) -> Testbench:
        """Hold: write bitlines grounded, read port quiescent."""
        circuit = self._new_circuit("hold")
        circuit.add_voltage_source("vddc", "vddc", "0", vdd)
        circuit.add_voltage_source("vgnd", "vgnd", "0", 0.0)
        circuit.add_voltage_source("wwl", "wwl", "0", 0.0)
        circuit.add_voltage_source("wbl", "wbl", "0", 0.0)
        circuit.add_voltage_source("wblb", "wblb", "0", 0.0)
        circuit.add_voltage_source("rbl", "rbl", "0", vdd)
        circuit.add_voltage_source("rsl", "rsl", "0", vdd)
        ic = self._storage_ic(vdd)
        if not stored_one:
            ic["q"], ic["qb"] = ic["qb"], ic["q"]
        window = AccessWindow(DEFAULT_ACCESS_START, DEFAULT_ACCESS_START + 1e-9)
        return Testbench(circuit, ic, window)

    def read_testbench(
        self,
        vdd: float,
        assist: Assist | None = None,
        duration: float = 1.0e-9,
        t_on: float = DEFAULT_ACCESS_START,
    ) -> Testbench:
        """Decoupled read: rsl pulses low, rbl discharges through m7."""
        if assist is not None:
            raise ValueError("the 7T cell's read port does not take assist techniques")
        circuit = self._new_circuit("read")
        window = AccessWindow(t_on, t_on + duration)
        circuit.add_voltage_source("vddc", "vddc", "0", vdd)
        circuit.add_voltage_source("vgnd", "vgnd", "0", 0.0)
        circuit.add_voltage_source("wwl", "wwl", "0", 0.0)
        circuit.add_voltage_source("wbl", "wbl", "0", 0.0)
        circuit.add_voltage_source("wblb", "wblb", "0", 0.0)
        circuit.add_voltage_source(
            "rsl", "rsl", "0", Pulse(vdd, 0.0, t_start=t_on, width=duration)
        )
        circuit.add_capacitor("rbl", "0", LinearCharge(BITLINE_CAPACITANCE), name="crbl")

        ic = self._storage_ic(vdd)
        ic["rbl"] = vdd
        ic["rsl"] = vdd
        return Testbench(
            circuit,
            ic,
            window,
            read_bitline="rbl",
            read_reference=None,
            precharge_level=vdd,
        )

    def write_testbench(
        self,
        vdd: float,
        pulse_width: float,
        assist: Assist | None = None,
        t_on: float = DEFAULT_ACCESS_START,
    ) -> Testbench:
        """Write q = 1 -> 0: wbl stays low, wblb raised so m6 stays off."""
        circuit = self._new_circuit("write")
        for name, waveform in self._write_sources(vdd, pulse_width, assist, t_on).items():
            circuit.add_voltage_source(name, name, "0", waveform)
        ic = self._storage_ic(vdd)
        return Testbench(circuit, ic, AccessWindow(t_on, t_on + pulse_width))

    def write_bench_factory(
        self,
        vdd: float,
        assist: Assist | None = None,
        t_on: float = DEFAULT_ACCESS_START,
    ):
        """A ``pulse_width -> Testbench`` factory sharing one built
        circuit, as :meth:`repro.sram.base.SixTCellBase.write_bench_factory`:
        each bench equals a fresh ``write_testbench(vdd, width)``."""
        base = self.write_testbench(vdd, 1.0, assist=assist, t_on=t_on)
        return pulse_width_factory(
            base, lambda width: self._write_sources(vdd, width, assist, t_on)
        )

    def _write_sources(
        self, vdd: float, pulse_width: float, assist: Assist | None, t_on: float
    ) -> dict[str, Waveform]:
        """Name -> waveform of every source of a write bench, in netlist
        order."""
        if assist is not None:
            raise ValueError("the 7T comparison cell is simulated without assists")
        return {
            "vddc": Constant(vdd),
            "vgnd": Constant(0.0),
            "wwl": Pulse(0.0, vdd, t_start=t_on, width=pulse_width),
            "wbl": Constant(0.0),
            "wblb": Pulse(0.0, vdd, t_start=t_on, width=pulse_width),
            "rbl": Constant(vdd),
            "rsl": Constant(vdd),
        }
