"""Base class for 6T-style SRAM cells (two bitlines, one wordline).

Subclasses provide the core transistors via :meth:`_build_core` and the
wordline polarity; hold/read/write testbench construction — including
every assist technique of Section 4 — is shared here.

All testbenches put the cell in the canonical state q = 1, qb = 0 and,
for writes, flip it to q = 0 (bl driven low, blb driven high).  For the
unidirectional TFET cells this is fully general: the cell and the drive
are mirror-symmetric.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import Constant, Pulse, Waveform
from repro.devices.charges import LinearCharge
from repro.sram.assist import AccessWindow, Assist
from repro.sram.cell import CellBuilder, CellSizing
from repro.sram.testbench import (
    BITLINE_CAPACITANCE,
    DEFAULT_ACCESS_START,
    Testbench,
    pulse_width_factory,
)

__all__ = ["SixTCellBase"]


class SixTCellBase:
    """Common scaffolding for two-bitline, single-wordline cells."""

    #: Human-readable cell name, set by subclasses.
    name: str = "6T"

    def __init__(self, sizing: CellSizing):
        self.sizing = sizing

    # -- subclass hooks --------------------------------------------------------

    def _build_core(self, builder: CellBuilder) -> None:
        """Add the cell transistors (nodes q, qb, bl, blb, wl, vddc, vgnd)."""
        raise NotImplementedError

    def wl_inactive(self, vdd: float) -> float:
        """Wordline level that keeps the access transistors off."""
        raise NotImplementedError

    def wl_active(self, vdd: float) -> float:
        """Wordline level that turns the access transistors on."""
        raise NotImplementedError

    # -- shared construction -----------------------------------------------------

    def _new_circuit(self, label: str) -> tuple[Circuit, CellBuilder]:
        circuit = Circuit(f"{self.name} {label}")
        builder = CellBuilder(circuit)
        self._build_core(builder)
        builder.add_storage_wire_caps()
        return circuit, builder

    def _storage_ic(self, vdd: float) -> dict[str, float]:
        return {"q": vdd, "qb": 0.0, "vddc": vdd, "vgnd": 0.0}

    def hold_testbench(self, vdd: float, stored_one: bool = True) -> Testbench:
        """Hold condition: wordline off, both bitlines clamped at V_DD.

        ``stored_one`` selects the held state (q = 1 by default); the
        asymmetric cell's leakage depends on it.
        """
        circuit, _ = self._new_circuit("hold")
        circuit.add_voltage_source("vddc", "vddc", "0", vdd)
        circuit.add_voltage_source("vgnd", "vgnd", "0", 0.0)
        circuit.add_voltage_source("wl", "wl", "0", self.wl_inactive(vdd))
        circuit.add_voltage_source("bl", "bl", "0", vdd)
        circuit.add_voltage_source("blb", "blb", "0", vdd)
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
        bitline_capacitance: float = BITLINE_CAPACITANCE,
    ) -> Testbench:
        """Dynamic read: bitlines precharged and floating, wordline pulsed.

        ``bitline_capacitance`` scales with the number of rows sharing
        the column (see :mod:`repro.sram.array`).
        """
        self._check_assist(assist, "read")
        circuit, _ = self._new_circuit("read")
        window = AccessWindow(t_on, t_on + duration)

        vddc, vgnd = self._rails(vdd, assist, window)
        circuit.add_voltage_source("vddc", "vddc", "0", vddc)
        circuit.add_voltage_source("vgnd", "vgnd", "0", vgnd)
        wl_on = self.wl_active(vdd)
        if assist is not None:
            wl_on = assist.wl_active_level(wl_on, vdd)
        circuit.add_voltage_source(
            "wl", "wl", "0",
            Pulse(self.wl_inactive(vdd), wl_on, t_start=t_on, width=duration),
        )
        precharge = vdd
        if assist is not None:
            precharge = assist.bitline_level(vdd, vdd)
        circuit.add_capacitor("bl", "0", LinearCharge(bitline_capacitance), name="cbl")
        circuit.add_capacitor("blb", "0", LinearCharge(bitline_capacitance), name="cblb")

        ic = self._storage_ic(vdd)
        ic["bl"] = precharge
        ic["blb"] = precharge
        ic["wl"] = self.wl_inactive(vdd)
        return Testbench(
            circuit,
            ic,
            window,
            read_bitline="blb",
            read_reference="bl",
            precharge_level=precharge,
        )

    def write_testbench(
        self,
        vdd: float,
        pulse_width: float,
        assist: Assist | None = None,
        t_on: float = DEFAULT_ACCESS_START,
    ) -> Testbench:
        """Write the opposite state: bl driven low, blb driven high."""
        circuit, _ = self._new_circuit("write")
        for name, waveform in self._write_sources(vdd, pulse_width, assist, t_on).items():
            circuit.add_voltage_source(name, name, "0", waveform)
        ic = self._storage_ic(vdd)
        ic["wl"] = self.wl_inactive(vdd)
        return Testbench(circuit, ic, AccessWindow(t_on, t_on + pulse_width))

    def write_bench_factory(
        self,
        vdd: float,
        assist: Assist | None = None,
        t_on: float = DEFAULT_ACCESS_START,
    ):
        """A ``pulse_width -> Testbench`` factory sharing one built circuit.

        The WL_crit bisection simulates the same cell a dozen-plus
        times with only the pulse widths changed; rebuilding the
        netlist per width is pure overhead in the Monte-Carlo hot loop.
        This builds :meth:`write_testbench` once and swaps every source
        waveform per call — the waveform-swap idiom the MNA source
        caches key on — so each returned bench is value-identical to a
        fresh ``write_testbench(vdd, width, assist)``, and two benches
        differ only in pulse width.  The returned benches share the
        circuit: a bench is current until the next call.
        """
        base = self.write_testbench(vdd, 1.0, assist=assist, t_on=t_on)
        return pulse_width_factory(
            base, lambda width: self._write_sources(vdd, width, assist, t_on)
        )

    # -- helpers ----------------------------------------------------------------

    def _write_sources(
        self, vdd: float, pulse_width: float, assist: Assist | None, t_on: float
    ) -> dict[str, Waveform]:
        """Name -> waveform of every source of a write bench, in netlist
        order; the one definition :meth:`write_testbench` and
        :meth:`write_bench_factory` share."""
        self._check_assist(assist, "write")
        window = AccessWindow(t_on, t_on + pulse_width)
        vddc, vgnd = self._rails(vdd, assist, window)
        wl_on = self.wl_active(vdd)
        high_level = vdd
        if assist is not None:
            wl_on = assist.wl_active_level(wl_on, vdd)
            high_level = assist.bitline_level(vdd, vdd)
        return {
            "vddc": vddc,
            "vgnd": vgnd,
            "wl": Pulse(self.wl_inactive(vdd), wl_on, t_start=t_on, width=pulse_width),
            "bl": Constant(0.0),
            "blb": Pulse(vdd, high_level, t_start=t_on, width=pulse_width)
            if high_level != vdd
            else Constant(vdd),
        }

    @staticmethod
    def _rails(
        vdd: float, assist: Assist | None, window: AccessWindow
    ) -> tuple[Waveform, Waveform]:
        """``(vddc, vgnd)`` waveforms: the rail assists pulse them."""
        if assist is None:
            return Constant(vdd), Constant(0.0)
        return assist.vdd_rail(vdd, window), assist.gnd_rail(vdd, window)

    @staticmethod
    def _check_assist(assist: Assist | None, operation: str) -> None:
        if assist is not None and assist.kind != operation:
            raise ValueError(
                f"{assist.name} is a {assist.kind} assist; cannot apply it to a "
                f"{operation} operation"
            )
