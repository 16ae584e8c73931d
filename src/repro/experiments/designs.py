"""The four SRAM designs compared in the paper's Section 5.

* the **proposed** cell: 6T TFET with inward-pTFET access, sized at the
  paper's beta ~ 0.6 to favour write, read-assisted by V_GND lowering;
* the **6T CMOS** baseline (32 nm PTM-like);
* the **asymmetric 6T TFET** cell (Singh et al.);
* the **7T TFET** cell with a decoupled read port (Kim et al.).
"""

from __future__ import annotations

from repro.sram import (
    READ_ASSISTS,
    AccessConfig,
    AsymTfet6TCell,
    CellSizing,
    Cmos6TCell,
    Tfet6TCell,
    Tfet7TCell,
)
from repro.sram.cell import TfetDeviceSet

__all__ = [
    "PROPOSED_BETA",
    "proposed_cell",
    "proposed_read_assist",
    "cmos_cell",
    "seven_t_cell",
    "asym_cell",
]

PROPOSED_BETA = 0.6
"""The paper's design point: size for write, assist the read."""

CMOS_BETA = 1.3
"""Conventional 6T CMOS cell ratio."""


def proposed_cell(devices: TfetDeviceSet | None = None) -> Tfet6TCell:
    """The proposed 6T inpTFET cell at beta = 0.6."""
    return Tfet6TCell(
        CellSizing().with_beta(PROPOSED_BETA),
        access=AccessConfig.INWARD_P,
        devices=devices,
    )


def proposed_read_assist():
    """The winning technique of Section 4: V_GND lowering RA."""
    return READ_ASSISTS["vgnd_lowering"]


def cmos_cell() -> Cmos6TCell:
    return Cmos6TCell(CellSizing().with_beta(CMOS_BETA))


def seven_t_cell(devices: TfetDeviceSet | None = None) -> Tfet7TCell:
    return Tfet7TCell(devices=devices)


def asym_cell(devices: TfetDeviceSet | None = None) -> AsymTfet6TCell:
    return AsymTfet6TCell(devices=devices)

