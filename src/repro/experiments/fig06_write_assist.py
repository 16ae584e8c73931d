"""Fig. 6(e): effectiveness of the four write-assist techniques vs beta.

WL_crit of the 6T inpTFET cell with each WA technique at 30 % of V_DD.
Paper shape: wordline lowering and bitline raising (strengthen the
access transistor) win at low beta but stop working as beta grows;
the rail techniques (reduce inverter strength) survive to larger beta.

Reproduction note: V_DD-lowering WA is structurally handicapped in a
faithful unidirectional TFET cell — the high storage node can only
follow the collapsed rail through the pull-up's reverse conduction,
which Fig. 2(b)-faithful reverse currents make far too slow for
nanosecond pulses — so it reports write failures here.  EXPERIMENTS.md
discusses the deviation.
"""

from __future__ import annotations

from repro.char.metrics import MetricPoint
from repro.char.query import evaluate_points
from repro.experiments.common import ExperimentResult
from repro.sram import WRITE_ASSISTS

DEFAULT_BETAS = (1.0, 1.5, 2.0, 2.5, 3.0)


def points(betas=DEFAULT_BETAS, vdd: float = 0.8) -> list[MetricPoint]:
    """The table's points, row by row: no assist, then each technique."""
    assists = (None, *WRITE_ASSISTS.values())
    return [
        MetricPoint("wl_crit", "inward_p", vdd, beta, assist=assist)
        for beta in betas
        for assist in assists
    ]


def run(betas=DEFAULT_BETAS, vdd: float = 0.8, jobs: int = 1) -> ExperimentResult:
    techniques = list(WRITE_ASSISTS)
    values = iter(evaluate_points(points(betas, vdd), jobs=jobs))
    result = ExperimentResult(
        "fig06",
        f"WL_crit (ps) with write-assist techniques at V_DD = {vdd} V",
        ["beta", "no assist"] + techniques,
    )
    for beta in betas:
        result.add_row(beta, *(1e12 * next(values) for _ in range(1 + len(techniques))))
    result.notes.append(
        "paper shape: wl_lowering/bl_raising best at low beta, failing by "
        "beta ~ 2.5-3; rail-based assists degrade more slowly"
    )
    return result
