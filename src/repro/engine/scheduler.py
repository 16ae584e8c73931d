"""Fault-tolerant batch scheduler over a process pool.

``run_tasks`` executes a list of independent :class:`Task` objects and
returns a :class:`BatchReport`.  The contract:

* **Determinism** — outcomes depend only on each task's
  ``(root_seed, index)``-derived seed and payload, never on worker
  count or completion order; ``jobs=1`` runs inline (no pickling, so
  closures are fine) and is bit-identical to any ``jobs=N``.
* **Fault tolerance** — a task that exhausts its retries, times out,
  or dies with the pool is recorded as a structured failure; the batch
  always completes and reports, it never crashes half-way.
* **Checkpointing** — with a checkpoint configured, every outcome is
  flushed to the JSONL log the moment it lands, and ``resume=True``
  replays completed indices instead of recomputing them.
* **Telemetry** — per-task counters (solver statistics, retry
  counts) are aggregated across workers into the caller's active
  telemetry session, so run manifests of parallel runs stay as
  diagnosable as serial ones.
* **Tracing** — with ``trace_dir`` configured, the scheduler mints a
  :class:`~repro.telemetry.core.TraceContext` (trace id, batch span id,
  trace directory) and threads it into every worker; workers stream
  per-task span trees and their sessions' events to per-process JSONL
  sinks, the scheduler records the batch span and aggregate
  checkpoint-I/O span, and the sinks are merged into one run-level
  ``trace.json`` when the batch completes (``repro trace`` renders it).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.checkpoint import CheckpointLog
from repro.engine.jobs import Task, TaskOutcome
from repro.engine.worker import execute_task
from repro.telemetry import core as telemetry
from repro.verify.core import VerifyOptions

__all__ = ["EngineConfig", "BatchReport", "run_tasks"]

MAX_IN_FLIGHT_PER_WORKER = 4
"""Submission window per worker: bounds pickled-task memory while
keeping every worker saturated."""


@dataclass(frozen=True)
class EngineConfig:
    """Batch-execution knobs.

    ``retries`` counts additional attempts after the first (on
    :class:`~repro.circuit.dcop.ConvergenceError` only); ``timeout_s``
    is the per-attempt wall-clock budget.  ``checkpoint_path`` enables
    JSONL checkpointing; ``resume`` replays it.

    ``verify_fraction`` sample-audits that fraction of tasks under a
    :mod:`repro.verify` session (deterministically selected per task
    seed, so the audited subset is stable across worker counts and
    resumes); ``verify_options`` tunes the audits.  An audit violation
    fails the task with a structured ``VerificationError`` outcome —
    it is a solver bug, not a convergence hiccup, so it is never
    retried.

    ``trace_dir`` enables the cross-process trace pipeline: per-task
    span trees stream to JSONL sinks under that directory and merge
    into ``<trace_dir>/trace.json`` when the batch completes.
    ``trace_id`` pins the run-level trace id (several batches of one
    run share it); left ``None``, a fresh id is minted per batch.
    """

    jobs: int = 1
    retries: int = 2
    timeout_s: float | None = None
    checkpoint_path: str | Path | None = None
    resume: bool = False
    run_key: str = "batch"
    root_seed: int = 0
    collect_telemetry: bool = True
    verify_fraction: float = 0.0
    verify_options: VerifyOptions | None = None
    trace_dir: str | Path | None = None
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries cannot be negative, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {self.verify_fraction}"
            )


@dataclass
class BatchReport:
    """Everything one batch run produced, success and failure alike."""

    outcomes: list[TaskOutcome]
    jobs: int
    wall_s: float
    resumed_count: int = 0
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed_count(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def retry_count(self) -> int:
        return sum(o.attempts - 1 for o in self.outcomes)

    def values(self, failed_value=None) -> list:
        """Task values in index order; failures become ``failed_value``."""
        return [o.value if o.ok else failed_value for o in self.outcomes]

    def failures(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]


def run_tasks(tasks: list[Task], config: EngineConfig = EngineConfig()) -> BatchReport:
    """Execute a batch of independent tasks; see the module docstring."""
    indices = [t.index for t in tasks]
    if len(set(indices)) != len(indices):
        raise ValueError("task indices must be unique within a batch")

    trace = None
    if config.trace_dir is not None:
        trace = telemetry.TraceContext.for_batch(
            config.trace_dir, config.run_key, config.trace_id
        )

    start = time.perf_counter()
    batch_t0_unix = time.time()
    done: dict[int, TaskOutcome] = {}
    log = None
    if config.checkpoint_path is not None:
        log = CheckpointLog(config.checkpoint_path, config.run_key, config.root_seed)
        if config.resume:
            done = log.open_resumed(indices)
        else:
            log.open_fresh()
        if trace is not None:
            log = _TimedCheckpoint(log)

    pending = [t for t in tasks if t.index not in done]
    resumed_count = len(tasks) - len(pending)
    try:
        if config.jobs == 1:
            fresh = _run_inline(pending, config, log, trace)
        else:
            fresh = _run_pool(pending, config, log, trace)
    finally:
        if log is not None:
            log.close()

    done.update(fresh)
    outcomes = [done[t.index] for t in tasks]
    report = BatchReport(
        outcomes=outcomes,
        jobs=config.jobs,
        wall_s=time.perf_counter() - start,
        resumed_count=resumed_count,
    )
    for outcome in fresh.values():
        _merge_counts(report.counters, outcome.counters)
    _publish_to_session(report, resumed_count)
    if trace is not None:
        _finalize_trace(trace, config, report, log, batch_t0_unix)
    return report


class _TimedCheckpoint:
    """Checkpoint-log proxy that accumulates append wall time.

    Traced batches wrap the log in this so the scheduler can emit one
    aggregate ``checkpoint.io`` span per batch instead of one span per
    outcome — checkpoint appends are frequent and individually tiny.
    """

    def __init__(self, log: CheckpointLog):
        self._log = log
        self.append_s = 0.0
        self.appends = 0

    def append(self, outcome) -> None:
        t0 = time.perf_counter()
        self._log.append(outcome)
        self.append_s += time.perf_counter() - t0
        self.appends += 1

    def close(self) -> None:
        self._log.close()


def _finalize_trace(trace, config, report, log, batch_t0_unix) -> None:
    """Record the scheduler-side spans and merge the run-level trace."""
    from repro.obs.sink import SpanSink
    from repro.obs.trace import merge_trace

    sink = SpanSink(config.trace_dir, role="scheduler", trace_id=trace.trace_id)
    try:
        if isinstance(log, _TimedCheckpoint) and log.appends:
            sink.write_span(
                telemetry.derive_span_id(
                    trace.trace_id, trace.parent_span_id, "checkpoint.io", 0
                ),
                trace.parent_span_id,
                "checkpoint.io",
                batch_t0_unix,
                log.append_s,
                appends=log.appends,
            )
        sink.write_span(
            trace.parent_span_id,
            "",
            "batch",
            batch_t0_unix,
            report.wall_s,
            run_key=config.run_key,
            jobs=config.jobs,
            tasks=len(report.outcomes),
            ok=report.ok_count,
            failed=report.failed_count,
            resumed=report.resumed_count,
        )
    finally:
        sink.close()
    merge_trace(config.trace_dir)


def _run_inline(pending, config, log, trace=None) -> dict[int, TaskOutcome]:
    """Single-job path: runs in-process, accepts unpicklable task fns."""
    outcomes: dict[int, TaskOutcome] = {}
    for task in pending:
        outcome = execute_task(
            task,
            retries=config.retries,
            timeout_s=config.timeout_s,
            collect_telemetry=config.collect_telemetry,
            verify_fraction=config.verify_fraction,
            verify_options=config.verify_options,
            trace=trace,
        )
        outcomes[task.index] = outcome
        if log is not None:
            log.append(outcome)
    return outcomes


def _run_pool(pending, config, log, trace=None) -> dict[int, TaskOutcome]:
    """Multi-worker path over a fork-context process pool.

    Tasks are submitted through a bounded in-flight window; each
    completion is checkpointed immediately.  A broken pool (a worker
    killed by the OS) downgrades the affected tasks to structured
    failures instead of aborting the batch.
    """
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # non-POSIX fallback; task fns must then be importable
        mp_context = None

    outcomes: dict[int, TaskOutcome] = {}
    window = config.jobs * MAX_IN_FLIGHT_PER_WORKER
    queue = list(reversed(pending))  # pop() preserves index order
    with ProcessPoolExecutor(max_workers=config.jobs, mp_context=mp_context) as pool:
        in_flight = {}
        while queue or in_flight:
            while queue and len(in_flight) < window:
                task = queue.pop()
                future = pool.submit(
                    execute_task,
                    task,
                    retries=config.retries,
                    timeout_s=config.timeout_s,
                    collect_telemetry=config.collect_telemetry,
                    verify_fraction=config.verify_fraction,
                    verify_options=config.verify_options,
                    trace=trace,
                )
                in_flight[future] = task
            finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in finished:
                task = in_flight.pop(future)
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 — e.g. BrokenProcessPool
                    outcome = TaskOutcome(
                        index=task.index,
                        status="failed",
                        attempts=1,
                        error_type=type(exc).__name__,
                        error=str(exc) or type(exc).__name__,
                    )
                outcomes[task.index] = outcome
                if log is not None:
                    log.append(outcome)
    return outcomes


def _publish_to_session(report: BatchReport, resumed_count: int) -> None:
    """Fold worker counters and engine totals into the caller's session."""
    tel = telemetry.active()
    if tel is None:
        return
    for name, n in report.counters.items():
        tel.count(name, n)
    tel.count("engine.tasks_total", len(report.outcomes))
    tel.count("engine.tasks_ok", report.ok_count)
    tel.count("engine.tasks_failed", report.failed_count)
    tel.count("engine.tasks_resumed", resumed_count)
    tel.count("engine.jobs", report.jobs)


def _merge_counts(into: dict[str, int], source: dict[str, int]) -> None:
    for name, n in source.items():
        into[name] = into.get(name, 0) + n
