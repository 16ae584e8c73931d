"""Static (hold) power comparison — the paper's central selling point.

Claims reproduced:

* outward-access 6T TFET cells burn ~5 orders (0.6 V) to ~9 orders
  (0.8 V) more hold power than inward-access cells (Section 3);
* the proposed cell and the 7T consume essentially the same leakage,
  6-7 orders of magnitude below the 6T CMOS cell (Section 5);
* the asymmetric cell pays ~4 orders at V_DD = 0.5 V for its outward
  access transistor under V_DD-clamped bitlines.
"""

from __future__ import annotations

import math

from repro.char.metrics import MetricPoint
from repro.char.query import evaluate_points
from repro.experiments.common import ExperimentResult

DEFAULT_VDDS = (0.5, 0.6, 0.7, 0.8)

HOLD_DESIGNS = ("proposed", "outward_n", "asym", "7t", "cmos")
"""The hold-power columns; the registry measures the outward cell in
its leaky state."""


def points(vdds=DEFAULT_VDDS) -> list[MetricPoint]:
    """The table's points, row by row."""
    return [MetricPoint("hold_power", design, vdd) for vdd in vdds for design in HOLD_DESIGNS]


def run(vdds=DEFAULT_VDDS, char_store=None, jobs: int = 1) -> ExperimentResult:
    values = iter(evaluate_points(points(vdds), jobs=jobs, char_store=char_store))
    result = ExperimentResult(
        "tab_power",
        "Hold (static) power in watts per cell",
        [
            "vdd (V)",
            "proposed (inward)",
            "outward 6T TFET",
            "asym 6T TFET",
            "7T TFET",
            "6T CMOS",
            "orders: outward/inward",
            "orders: CMOS/proposed",
            "orders: asym/proposed",
        ],
    )
    for vdd in vdds:
        p_in, p_out, p_asym, p_7t, p_cmos = (next(values) for _ in HOLD_DESIGNS)
        result.add_row(
            vdd,
            p_in,
            p_out,
            p_asym,
            p_7t,
            p_cmos,
            math.log10(p_out / p_in),
            math.log10(p_cmos / p_in),
            math.log10(p_asym / p_in),
        )
    result.notes.append(
        "paper: outward ~5 orders worse at 0.6 V and ~9 at 0.8 V; CMOS 6-7 "
        "orders above the proposed cell; asym ~4 orders above at 0.5 V"
    )
    return result
