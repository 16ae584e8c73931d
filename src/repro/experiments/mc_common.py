"""Shared engine plumbing for the Monte-Carlo experiments.

Centralizes how ``fig09``/``fig10`` map a metric spec onto an
:class:`~repro.engine.scheduler.EngineConfig`: one checkpoint file per
study (named from the experiment id and metric) and a ``run_key`` that
pins checkpoints to their study parameters so ``--resume`` can never
silently mix runs.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.engine.mc import McMetricSpec, MonteCarloBatch
from repro.engine.scheduler import EngineConfig

__all__ = [
    "engine_config_for",
    "run_study",
    "DEFAULT_CHECKPOINT_DIR",
]

DEFAULT_CHECKPOINT_DIR = "results/checkpoints"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


def run_key_for(experiment_id: str, spec: McMetricSpec) -> str:
    """Identity of one study's work (excludes the sample count, so a
    checkpoint can seed a larger rerun of the same study)."""
    return (
        f"{experiment_id}:{spec.metric_name}:metric={spec.metric}"
        f":beta={spec.beta:g}:vdd={spec.vdd:g}:assist={spec.assist}"
    )


def engine_config_for(
    experiment_id: str,
    spec: McMetricSpec,
    seed: int,
    *,
    jobs: int = 1,
    resume: bool = False,
    checkpoint_dir: str | Path | None = None,
    retries: int = 2,
    timeout_s: float | None = None,
    trace_dir: str | Path | None = None,
    trace_id: str | None = None,
) -> EngineConfig:
    """The engine configuration for one experiment study.

    ``checkpoint_dir=None`` disables checkpointing (library callers opt
    in; the CLI runner always passes a directory so interrupted command
    line runs are resumable by default).  ``resume=True`` without a
    checkpoint directory resumes from the default location.

    ``trace_dir`` streams per-task span trees into that directory and
    merges them into a run-level trace (see :mod:`repro.obs`);
    ``trace_id`` keeps every study of one experiment under a single
    trace id.
    """
    if resume and checkpoint_dir is None:
        checkpoint_dir = DEFAULT_CHECKPOINT_DIR
    checkpoint_path = None
    if checkpoint_dir is not None:
        checkpoint_path = (
            Path(checkpoint_dir) / f"{experiment_id}_{_slug(spec.metric_name)}.jsonl"
        )
    return EngineConfig(
        jobs=jobs,
        retries=retries,
        timeout_s=timeout_s,
        checkpoint_path=checkpoint_path,
        resume=resume,
        run_key=run_key_for(experiment_id, spec),
        root_seed=seed,
        trace_dir=trace_dir,
        trace_id=trace_id,
    )


def run_study(
    experiment_id: str,
    spec: McMetricSpec,
    samples: int,
    seed: int,
    **engine_kwargs,
):
    """One Monte-Carlo study end to end: config, run, per-sample result.

    The shared loop body of ``fig09``/``fig10``.  The samples run in
    stacked chunks sized from ``samples`` and ``jobs``
    (:func:`repro.engine.mc.chunk_size`: at most 16 samples, as even as
    the count allows, the same number of chunks per worker); values
    are bit-identical at any ``jobs``, so the figures' statistics are
    independent of how the work was scheduled.  Chunks are keyed by
    the samples they hold, so a checkpoint written under another chunk
    layout resumes by recomputing its samples.
    """
    engine = engine_config_for(experiment_id, spec, seed, **engine_kwargs)
    return MonteCarloBatch(spec).run(samples, seed=seed, engine=engine)
