"""repro.engine — fault-tolerant parallel batch execution.

The statistical experiments of the paper (Monte-Carlo variation,
large sweeps) decompose into independent tasks.  This subsystem runs
them at scale:

* :mod:`repro.engine.jobs` — the job model: tasks with deterministic
  per-task seeds derived from ``(root_seed, index)``;
* :mod:`repro.engine.scheduler` — a process-pool scheduler with
  per-task retry (solver-knob escalation on ``ConvergenceError``),
  per-attempt timeouts, structured failures, and cross-worker
  telemetry aggregation;
* :mod:`repro.engine.checkpoint` — append-only JSONL checkpoints so an
  interrupted run resumes (or extends) without recomputing;
* :mod:`repro.engine.mc` — the Monte-Carlo front-end used by
  ``fig09``/``fig10`` and ``examples/monte_carlo_yield.py``: studies
  run as chunks of samples, each chunk one stacked Newton batch.

Quickstart::

    from repro.engine import EngineConfig, McMetricSpec, MonteCarloBatch

    spec = McMetricSpec(metric="drnm", beta=0.6, assist="vgnd_lowering",
                        metric_name="DRNM")
    result = MonteCarloBatch(spec).run(
        200, seed=2011,
        engine=EngineConfig(jobs=4, checkpoint_path="results/checkpoints/drnm.jsonl",
                            run_key="drnm@0.6", root_seed=2011, resume=True),
    )
    result.mean(), result.failure_fraction, result.report.resumed_count
"""

from repro.engine.checkpoint import CheckpointLog, CheckpointMismatch
from repro.engine.jobs import Task, TaskContext, TaskOutcome, derive_seed, task_rng
from repro.engine.mc import (
    McMetricSpec,
    MonteCarloBatch,
    escalated_transient_options,
    evaluate_mc_sample,
    sample_scales,
)
from repro.engine.scheduler import BatchReport, EngineConfig, run_tasks
from repro.engine.worker import TaskTimeout, execute_task

__all__ = [
    "BatchReport",
    "CheckpointLog",
    "CheckpointMismatch",
    "EngineConfig",
    "McMetricSpec",
    "MonteCarloBatch",
    "Task",
    "TaskContext",
    "TaskOutcome",
    "TaskTimeout",
    "derive_seed",
    "escalated_transient_options",
    "evaluate_mc_sample",
    "execute_task",
    "run_tasks",
    "sample_scales",
    "task_rng",
]
