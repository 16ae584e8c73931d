"""Fig. 7(e): effectiveness of the four read-assist techniques vs beta.

DRNM of the 6T inpTFET cell with each RA technique at 30 % of V_DD,
for beta <= 1 (sized so the write is reliable).  Paper shape: the rail
techniques (V_DD raising / V_GND lowering — strengthen the inverter)
win at larger beta; weakening the access transistor (wordline raising /
bitline lowering) gains ground as beta shrinks.
"""

from __future__ import annotations

from repro.char.metrics import MetricPoint
from repro.char.query import evaluate_points
from repro.experiments.common import ExperimentResult
from repro.sram import READ_ASSISTS

DEFAULT_BETAS = (0.2, 0.4, 0.6, 0.8, 1.0)


def points(betas=DEFAULT_BETAS, vdd: float = 0.8) -> list[MetricPoint]:
    """The table's points, row by row: no assist, then each technique."""
    assists = (None, *READ_ASSISTS.values())
    return [
        MetricPoint("drnm", "inward_p", vdd, beta, assist=assist)
        for beta in betas
        for assist in assists
    ]


def run(betas=DEFAULT_BETAS, vdd: float = 0.8, jobs: int = 1) -> ExperimentResult:
    techniques = list(READ_ASSISTS)
    values = iter(evaluate_points(points(betas, vdd), jobs=jobs))
    result = ExperimentResult(
        "fig07",
        f"DRNM (mV) with read-assist techniques at V_DD = {vdd} V",
        ["beta", "no assist"] + techniques,
    )
    for beta in betas:
        result.add_row(beta, *(1e3 * next(values) for _ in range(1 + len(techniques))))
    result.notes.append(
        "paper shape: vdd_raising/vgnd_lowering dominate at large beta; "
        "access-weakening techniques close the gap as beta shrinks"
    )
    return result
