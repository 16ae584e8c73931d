"""The characterizable cell designs and their measurement policies.

A :class:`CharDesign` is the bridge between a spec's ``design`` axis
value and a concrete simulable cell: how to build it (optionally at a
swept beta and a process corner), which read assist its canonical
configuration uses, which metrics are defined for it, and the
measurement windows its technology needs (TFET drive collapses at low
V_DD, so the TFET cells measure delays with widened wordline windows —
the same policy the paper's Fig. 11 uses).

Everything here is plain data + module-level builders, so a design
reference travels to engine worker processes by name.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CharDesign", "DESIGNS", "build_cell", "delay_windows"]

ALL_METRICS = (
    "hold_power",
    "drnm",
    "snm",
    "wl_crit",
    "read_delay",
    "write_delay",
    "read_energy",
    "write_energy",
)


@dataclass(frozen=True)
class CharDesign:
    """Plain-data description of one characterizable design."""

    name: str
    technology: str
    """``"tfet"`` or ``"cmos"`` — selects the device fingerprint the
    entries depend on, so a TFET table change never invalidates CMOS
    entries (and vice versa)."""

    corner_sensitive: bool
    """Whether corner device cards apply (TFET designs only)."""

    beta_sweepable: bool
    """Whether the cell ratio is a free axis for this design."""

    metrics: tuple[str, ...] = ALL_METRICS
    """Metrics defined for this design."""

    read_assist: str | None = None
    """``READ_ASSISTS`` entry the canonical configuration reads with."""

    hold_average_states: bool = True
    """Average the two stored states for ``hold_power`` (the outward
    cell is characterized in its leaky state, as in the paper)."""

    wide_delay_windows: bool = False
    """Measure delays with the widened low-V_DD wordline windows."""


def _no(*names):
    return tuple(m for m in ALL_METRICS if m not in names)


DESIGNS: dict[str, CharDesign] = {
    "proposed": CharDesign(
        name="proposed", technology="tfet", corner_sensitive=True,
        beta_sweepable=False, read_assist="vgnd_lowering",
        wide_delay_windows=True,
    ),
    "cmos": CharDesign(
        name="cmos", technology="cmos", corner_sensitive=False,
        beta_sweepable=True,
    ),
    "asym": CharDesign(
        name="asym", technology="tfet", corner_sensitive=True,
        beta_sweepable=False, metrics=_no("wl_crit"),
        wide_delay_windows=True,
    ),
    "7t": CharDesign(
        name="7t", technology="tfet", corner_sensitive=True,
        beta_sweepable=False, wide_delay_windows=True,
    ),
    "inward_p": CharDesign(
        name="inward_p", technology="tfet", corner_sensitive=True,
        beta_sweepable=True, wide_delay_windows=True,
    ),
    "inward_n": CharDesign(
        name="inward_n", technology="tfet", corner_sensitive=True,
        beta_sweepable=True, wide_delay_windows=True,
    ),
    "outward_n": CharDesign(
        name="outward_n", technology="tfet", corner_sensitive=True,
        beta_sweepable=True, hold_average_states=False,
        wide_delay_windows=True,
    ),
}


def delay_windows(design: CharDesign, vdd: float) -> tuple[float, float]:
    """``(write pulse, read duration)`` for delay metrics at ``vdd``.

    The CMOS baseline uses the analysis defaults; TFET cells get the
    widened windows of Fig. 11 so the slow low-V_DD corner can finish.
    """
    if not design.wide_delay_windows:
        return 2.0e-9, 4.0e-9
    if vdd >= 0.6:
        return 6.0e-9, 8.0e-9
    return 4.0e-8, 4.0e-8


def build_cell(design_name: str, beta: float | None = None, corner: str = "tt"):
    """Build ``(cell, read_assist)`` for one grid point.

    ``beta=None`` means the design's canonical sizing.  A non-``tt``
    corner on a corner-insensitive design, or a ``beta`` on a design
    whose sizing is fixed by its topology, raises ``ValueError`` (the
    spec compiler never emits such points, and
    :func:`repro.serve.registry.validate_point` rejects them).
    """
    from repro.devices.corners import corner_device_set
    from repro.experiments.designs import (
        asym_cell,
        cmos_cell,
        proposed_cell,
        seven_t_cell,
    )
    from repro.sram import READ_ASSISTS, AccessConfig, CellSizing, Tfet6TCell

    try:
        design = DESIGNS[design_name]
    except KeyError:
        known = ", ".join(sorted(DESIGNS))
        raise ValueError(f"unknown design {design_name!r}; known: {known}") from None
    if corner != "tt" and not design.corner_sensitive:
        raise ValueError(
            f"design {design_name!r} has no {corner!r} corner card: corner cards "
            "are TFET oxide-thickness scales, so the CMOS baseline only supports tt"
        )
    if beta is not None and not design.beta_sweepable:
        raise ValueError(
            f"design {design_name!r} has a fixed topology-defined sizing; "
            "beta is not a free axis"
        )
    devices = corner_device_set(corner) if corner != "tt" else None

    if design_name == "proposed":
        cell = proposed_cell(devices)
    elif design_name == "cmos":
        if beta is None:
            cell = cmos_cell()
        else:
            from repro.sram import Cmos6TCell

            cell = Cmos6TCell(CellSizing().with_beta(beta))
    elif design_name == "asym":
        cell = asym_cell(devices)
    elif design_name == "7t":
        cell = seven_t_cell(devices)
    else:
        access = {
            "inward_p": AccessConfig.INWARD_P,
            "inward_n": AccessConfig.INWARD_N,
            "outward_n": AccessConfig.OUTWARD_N,
        }[design_name]
        sizing = CellSizing() if beta is None else CellSizing().with_beta(beta)
        cell = Tfet6TCell(sizing, access=access, devices=devices)

    assist = READ_ASSISTS[design.read_assist] if design.read_assist else None
    return cell, assist
