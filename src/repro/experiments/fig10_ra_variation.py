"""Fig. 10: process-variation impact on the read-assist techniques.

Monte-Carlo over +/-5 % gate-insulator thickness with the cell sized at
the design point beta = 0.6 (write naturally reliable, read assisted).
Paper shape: DRNM is minimally impacted for every RA technique, and the
WL_crit spread of the RA-sized cell is much smaller than the WA case —
the deciding argument for "size for write, assist the read".

Runs on :mod:`repro.engine` — see :mod:`repro.experiments.fig09_wa_variation`
for the parallel/checkpoint/resume semantics shared by both figures.
"""

from __future__ import annotations

from repro.engine.mc import McMetricSpec
from repro.experiments.common import ExperimentResult
from repro.experiments.mc_common import run_study
from repro.sram import READ_ASSISTS

DEFAULT_BETA = 0.6
DEFAULT_SAMPLES = 40

WLCRIT_UPPER_BOUND = 8e-9


def run(
    samples: int = DEFAULT_SAMPLES,
    beta: float = DEFAULT_BETA,
    vdd: float = 0.8,
    seed: int = 10,
    jobs: int = 1,
    resume: bool = False,
    checkpoint_dir: str | None = None,
    retries: int = 2,
    timeout_s: float | None = None,
    trace_dir: str | None = None,
    trace_id: str | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        "fig10",
        f"Monte-Carlo DRNM under RA at beta = {beta} ({samples} samples)",
        ["technique", "metric", "mean", "std", "spread (std/mean)", "write failures"],
    )

    specs = [
        McMetricSpec(
            metric="drnm",
            beta=beta,
            vdd=vdd,
            assist=name,
            metric_name=f"DRNM[{name}]",
        )
        for name in READ_ASSISTS
    ] + [
        McMetricSpec(
            metric="wlcrit",
            beta=beta,
            vdd=vdd,
            wlcrit_upper_bound=WLCRIT_UPPER_BOUND,
            metric_name="WLcrit",
        ),
    ]

    task_failures = 0
    for spec in specs:
        mc = run_study(
            "fig10",
            spec,
            samples,
            seed,
            jobs=jobs,
            resume=resume,
            checkpoint_dir=checkpoint_dir,
            retries=retries,
            timeout_s=timeout_s,
            trace_dir=trace_dir,
            trace_id=trace_id,
        )
        task_failures += mc.report.failed_count
        if spec.metric == "drnm":
            result.add_row(
                spec.assist,
                "DRNM (mV)",
                1e3 * mc.mean(),
                1e3 * mc.std(),
                mc.spread(),
                mc.failure_count,
            )
        else:
            result.add_row(
                "(no assist)",
                "WLcrit (ps)",
                1e12 * mc.mean(),
                1e12 * mc.std(),
                mc.spread(),
                mc.failure_count,
            )
    result.notes.append(
        "paper shape: DRNM nearly variation-immune; RA-sized WL_crit spread "
        "far below the WA-sized case of fig09"
    )
    if task_failures:
        result.notes.append(
            f"engine: {task_failures} task(s) failed after retries and were "
            "recorded as nan samples"
        )
    return result
