"""Shared experiment infrastructure: result tables and formatting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.telemetry.diag import format_table

__all__ = ["ExperimentResult", "fmt_seconds", "fmt_volts", "fmt_power", "fmt_value"]


def fmt_seconds(value: float) -> str:
    """Picosecond rendering with an explicit infinity (write failure)."""
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return "inf"
    return f"{value * 1e12:.1f} ps"


def fmt_volts(value: float) -> str:
    return f"{value * 1e3:.1f} mV"


def fmt_power(value: float) -> str:
    return f"{value:.3e} W"


def fmt_value(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value != 0.0 and (abs(value) < 1e-3 or abs(value) >= 1e4):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class ExperimentResult:
    """One reproduced table or figure, as printable rows."""

    experiment_id: str
    title: str
    header: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.header):
            raise ValueError(
                f"row has {len(values)} values for {len(self.header)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        """All values of one named column."""
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        """Fixed-width text rendering of the table."""
        cells = [[fmt_value(v) for v in row] for row in self.rows]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.extend(format_table(self.header, cells))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
