"""Fig. 8: the WL_crit vs DRNM trade-off across all eight techniques.

Each write-assist technique is swept over beta > 1 (write assisted,
read naturally reliable): the point is (DRNM without assist, WL_crit
with the WA).  Each read-assist technique is swept over beta <= 1
(write naturally reliable, read assisted): the point is (DRNM with the
RA, WL_crit without assist).  The paper's conclusion — reproduced
here — is that **V_GND-lowering RA** owns the lower-right frontier:
large DRNM at small WL_crit.
"""

from __future__ import annotations

import math

from repro.char.metrics import MetricPoint
from repro.char.query import evaluate_points
from repro.experiments.common import ExperimentResult
from repro.sram import READ_ASSISTS, WRITE_ASSISTS

DEFAULT_WA_BETAS = (1.2, 1.6, 2.0, 2.5)
DEFAULT_RA_BETAS = (0.3, 0.5, 0.7, 0.9)


def _rows(wa_betas, ra_betas):
    """``(technique, kind, beta, DRNM assist, WL_crit assist)`` per row."""
    for name, assist in WRITE_ASSISTS.items():
        for beta in wa_betas:
            yield name, "WA", beta, None, assist
    for name, assist in READ_ASSISTS.items():
        for beta in ra_betas:
            yield name, "RA", beta, assist, None


def points(
    wa_betas=DEFAULT_WA_BETAS, ra_betas=DEFAULT_RA_BETAS, vdd: float = 0.8
) -> list[MetricPoint]:
    """The table's points, row by row: the DRNM point, then the WL_crit
    point.  A WA row's unassisted DRNM and an RA row's unassisted
    WL_crit recur once per technique."""
    return [
        point
        for _, _, beta, read_assist, write_assist in _rows(wa_betas, ra_betas)
        for point in (
            MetricPoint("drnm", "inward_p", vdd, beta, assist=read_assist),
            MetricPoint("wl_crit", "inward_p", vdd, beta, assist=write_assist),
        )
    ]


def run(
    wa_betas=DEFAULT_WA_BETAS,
    ra_betas=DEFAULT_RA_BETAS,
    vdd: float = 0.8,
    jobs: int = 1,
) -> ExperimentResult:
    values = iter(evaluate_points(points(wa_betas, ra_betas, vdd), jobs=jobs))
    result = ExperimentResult(
        "fig08",
        f"WL_crit vs DRNM trade-off for all techniques at V_DD = {vdd} V",
        ["technique", "kind", "beta", "DRNM (mV)", "WLcrit (ps)"],
    )
    for name, kind, beta, _, _ in _rows(wa_betas, ra_betas):
        drnm = 1e3 * next(values)
        wl = 1e12 * next(values)
        result.add_row(name, kind, beta, drnm, wl)

    best = _frontier_winner(result)
    result.notes.append(f"lower-right frontier winner: {best} (paper: vgnd_lowering RA)")
    return result


def _frontier_winner(result: ExperimentResult) -> str:
    """Technique with the best (high DRNM, low WL_crit) score.

    Scored by DRNM minus a WL_crit penalty on each technique's best
    point; any finite-write point beats an unwritable one.
    """
    best_name, best_score = "none", -math.inf
    for row in result.rows:
        name, _, _, drnm, wl = row
        if math.isinf(wl):
            continue
        score = drnm - 0.15 * wl
        if score > best_score:
            best_name, best_score = name, score
    return best_name
