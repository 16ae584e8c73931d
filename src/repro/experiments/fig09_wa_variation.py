"""Fig. 9: process-variation impact on the write-assist techniques.

Monte-Carlo over +/-5 % gate-insulator thickness (independent per
transistor) with the cell sized at beta = 2 (write needs assistance).
Paper shape: WL_crit varies strongly for every WA technique, with
wordline lowering suffering outright write failures under variation,
while the DRNM of the same cells is barely affected.

Runs on :mod:`repro.engine`: each study's samples are solved in
stacked chunks (:class:`~repro.engine.mc.MonteCarloBatch`), ``jobs``
spreads the chunks across worker processes, ``checkpoint_dir`` +
``resume`` make interrupted campaigns restartable, and the per-sample
seed derivation keeps any ``jobs``/``resume`` combination bit-identical
to a serial run.
"""

from __future__ import annotations

from repro.engine.mc import McMetricSpec
from repro.experiments.common import ExperimentResult
from repro.experiments.mc_common import run_study

DEFAULT_BETA = 2.0
DEFAULT_SAMPLES = 40

#: Techniques shown in Fig. 9(a)-(c); wordline lowering appears via its
#: failure count (the paper drops its histogram for the same reason).
TECHNIQUES = ("vgnd_raising", "wl_lowering", "bl_raising")

WLCRIT_UPPER_BOUND = 8e-9


def run(
    samples: int = DEFAULT_SAMPLES,
    beta: float = DEFAULT_BETA,
    vdd: float = 0.8,
    seed: int = 9,
    jobs: int = 1,
    resume: bool = False,
    checkpoint_dir: str | None = None,
    retries: int = 2,
    timeout_s: float | None = None,
    trace_dir: str | None = None,
    trace_id: str | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        "fig09",
        f"Monte-Carlo WL_crit under WA at beta = {beta} ({samples} samples)",
        [
            "technique",
            "metric",
            "mean",
            "std",
            "spread (std/mean)",
            "write failures",
        ],
    )

    specs = [
        McMetricSpec(
            metric="wlcrit",
            beta=beta,
            vdd=vdd,
            assist=name,
            wlcrit_upper_bound=WLCRIT_UPPER_BOUND,
            metric_name=f"WLcrit[{name}]",
        )
        for name in TECHNIQUES
    ] + [
        McMetricSpec(metric="drnm", beta=beta, vdd=vdd, metric_name="DRNM"),
    ]

    task_failures = 0
    for spec in specs:
        mc = run_study(
            "fig09",
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
        if spec.metric == "wlcrit":
            result.add_row(
                spec.assist,
                "WLcrit (ps)",
                1e12 * mc.mean(),
                1e12 * mc.std(),
                mc.spread(),
                mc.failure_count,
            )
        else:
            result.add_row(
                "(no assist)",
                "DRNM (mV)",
                1e3 * mc.mean(),
                1e3 * mc.std(),
                mc.spread(),
                mc.failure_count,
            )
    result.notes.append(
        "paper shape: WL_crit spreads widely under variation (wl_lowering "
        "shows outright failures); DRNM is barely affected"
    )
    if task_failures:
        result.notes.append(
            f"engine: {task_failures} task(s) failed after retries and were "
            "recorded as nan samples"
        )
    return result
