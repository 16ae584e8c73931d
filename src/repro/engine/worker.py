"""Worker-side task execution: retry, escalation, timeout, telemetry.

This module is imported by name inside every worker process, so
everything here must be module-level and import-safe.  The execution
wrapper never lets an exception escape — a task that fails after all
retries produces a structured ``failed`` outcome, keeping the pool and
the rest of the batch alive (graceful degradation).

Retry policy: :class:`~repro.circuit.dcop.ConvergenceError` is
retryable — the task function sees an incremented ``ctx.attempt`` and
is expected to escalate its solver knobs (see
:func:`repro.engine.mc.escalated_transient_options`).  A
:class:`TaskTimeout` is *not* retryable: the work is deterministic, so
a second attempt would time out the same way; it is recorded as a
structured failure immediately.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.circuit.dcop import ConvergenceError
from repro.engine.jobs import Task, TaskContext, TaskOutcome
from repro.telemetry import core as telemetry
from repro.verify import core as verify

__all__ = ["TaskTimeout", "execute_task", "verify_selected"]

RETRYABLE_ERRORS = (ConvergenceError,)

_VERIFY_STREAM = 0x76657269  # "veri": decorrelates selection from task work


def verify_selected(seed: int, fraction: float) -> bool:
    """Deterministic sample-audit choice for one task.

    Derived from the task seed alone (through an independent
    ``SeedSequence`` stream), so which tasks run under verification is
    a pure function of ``(root_seed, index)`` — stable across worker
    counts, completion order, and resumes, like everything else about
    a task.
    """
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    draw = np.random.default_rng(
        np.random.SeedSequence([int(seed), _VERIFY_STREAM])
    ).random()
    return bool(draw < fraction)


class TaskTimeout(RuntimeError):
    """A task attempt exceeded the configured wall-clock budget."""


class _attempt_deadline:
    """SIGALRM-based soft deadline around one task attempt.

    Only usable on the main thread of a process (true for pool workers
    and for inline single-job runs); elsewhere it degrades to no
    enforcement rather than failing the task.
    """

    def __init__(self, timeout_s: float | None):
        self.timeout_s = timeout_s
        self._armed = False
        self._previous = None

    def __enter__(self):
        if (
            self.timeout_s is not None
            and threading.current_thread() is threading.main_thread()
            and hasattr(signal, "SIGALRM")
        ):
            def _on_alarm(signum, frame):
                raise TaskTimeout(
                    f"task attempt exceeded {self.timeout_s:g} s wall-clock budget"
                )

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
            self._armed = True
        return self

    def __exit__(self, *exc_info):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False


class _TaskTrace:
    """Records one task's span tree into this process's trace sink.

    Built once per traced task; writes the attempt spans (and the
    solver spans and events each attempt's telemetry session
    accumulated), any failure-forensics events, and finally the task
    span itself.  All span ids derive from the task's logical position
    (see :class:`~repro.telemetry.core.TraceContext`), never from this
    process's identity.  Attempt sessions record events at the log
    level of the session the task was started under (the runner's, or
    its copy in a forked pool worker), so ``--log-level`` reaches the
    workers' events too.
    """

    def __init__(self, trace: telemetry.TraceContext, task: Task):
        from repro.obs.sink import SpanSink

        self.trace = trace
        self.task = task
        self.sink = SpanSink(trace.directory, role="worker", trace_id=trace.trace_id)
        self.task_span = telemetry.task_span_id(
            trace.trace_id, trace.parent_span_id, task.index
        )
        outer = telemetry.active()
        self.log_level = outer.log_level if outer is not None else "error"
        self.t0_unix = time.time()
        self._attempt_t0 = (self.t0_unix, time.perf_counter())

    def begin_attempt(self, attempt: int) -> None:
        self._attempt_t0 = (time.time(), time.perf_counter())

    def _attempt_id(self, attempt: int) -> str:
        return telemetry.attempt_span_id(self.trace.trace_id, self.task_span, attempt)

    def context(self, attempt: int) -> telemetry.TraceContext:
        """The trace context rooting this attempt's solver spans."""
        return replace(self.trace, parent_span_id=self._attempt_id(attempt))

    def end_attempt(self, attempt: int, session) -> None:
        t0_unix, t0_perf = self._attempt_t0
        self.sink.write_span(
            self._attempt_id(attempt),
            self.task_span,
            "attempt",
            t0_unix,
            time.perf_counter() - t0_perf,
            index=self.task.index,
            attempt=attempt,
        )
        if session is not None:
            self.sink.write_session(session)

    def error(self, attempt: int, exc: BaseException) -> None:
        name = (
            "convergence_error"
            if isinstance(exc, RETRYABLE_ERRORS)
            else "task_error"
        )
        self.sink.write_event(
            name,
            level="error",
            index=self.task.index,
            attempt=attempt,
            error_type=type(exc).__name__,
            error="".join(traceback.format_exception_only(exc)).strip(),
        )

    def finish(self, outcome: TaskOutcome) -> TaskOutcome:
        fields = {
            "index": self.task.index,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "counters": outcome.counters,
        }
        if outcome.error_type:
            fields["error_type"] = outcome.error_type
        self.sink.write_span(
            self.task_span,
            self.trace.parent_span_id,
            "task",
            self.t0_unix,
            outcome.wall_s,
            **fields,
        )
        self.sink.close()
        return outcome


def execute_task(
    task: Task,
    retries: int = 0,
    timeout_s: float | None = None,
    collect_telemetry: bool = True,
    verify_fraction: float = 0.0,
    verify_options=None,
    trace=None,
) -> TaskOutcome:
    """Run one task to a structured outcome; never raises.

    ``retries`` is the number of *additional* attempts after the first;
    each attempt gets a fresh ``TaskContext`` with the attempt number,
    and (when enabled) runs under its own telemetry session whose
    counters ride back on the outcome for cross-worker aggregation.

    With ``verify_fraction > 0``, a deterministic per-seed draw
    (:func:`verify_selected`) runs the task under a
    :mod:`repro.verify` session: every Newton solution, transient
    step, and table evaluation inside it is re-checked against the
    reference implementations.  A
    :class:`~repro.verify.core.VerificationError` is *not* retryable —
    the work is deterministic, so the violation is a real solver bug,
    recorded as a structured failure (``error_type``
    ``VerificationError``) that survives the batch.

    With ``trace`` (a batch's :class:`~repro.telemetry.core.TraceContext`),
    the task's span tree — task, attempts, and the solver spans and
    events inside each attempt — streams to this process's JSONL sink;
    each attempt's telemetry session is rooted at the attempt span, so
    solver spans parent correctly in the merged run-level trace.  Failed
    attempts additionally emit ``convergence_error`` / ``task_error``
    forensics events.  Counter semantics are unchanged: task counters still ride
    back on the outcome only for successful tasks.
    """
    start = time.perf_counter()
    counters: dict[str, int] = {}
    attempt = 0
    tracer = _TaskTrace(trace, task) if trace is not None else None
    audited = verify_selected(task.seed, verify_fraction)
    if audited:
        counters["verify.audited_tasks"] = 1
    while True:
        ctx = TaskContext(index=task.index, seed=task.seed, attempt=attempt)
        verify_ctx = verify.enabled(verify_options) if audited else nullcontext(None)
        if tracer is not None:
            tracer.begin_attempt(attempt)
        session = None
        try:
            with verify_ctx as ver:
                try:
                    if collect_telemetry or tracer is not None:
                        trace_ctx = (
                            tracer.context(attempt) if tracer is not None else None
                        )
                        with telemetry.enabled(
                            log_level=tracer.log_level if tracer is not None else "error",
                            trace=trace_ctx,
                        ) as session:
                            with _attempt_deadline(timeout_s):
                                value = task.fn(task.payload, ctx)
                        if collect_telemetry:
                            _merge_counts(counters, session.counters)
                    else:
                        with _attempt_deadline(timeout_s):
                            value = task.fn(task.payload, ctx)
                finally:
                    # The attempt span lands success and failure alike —
                    # retried attempts are exactly the interesting ones.
                    if tracer is not None:
                        tracer.end_attempt(attempt, session)
                    # Merge audit counters on success *and* failure —
                    # a violation-aborted attempt still reports how far
                    # the audits got.
                    if ver is not None:
                        for name, n in ver.audits.items():
                            key = f"verify.audit.{name}"
                            counters[key] = counters.get(key, 0) + n
            outcome = TaskOutcome(
                index=task.index,
                status="ok",
                value=value,
                attempts=attempt + 1,
                wall_s=time.perf_counter() - start,
                counters=counters,
            )
            return tracer.finish(outcome) if tracer is not None else outcome
        except RETRYABLE_ERRORS as exc:
            if tracer is not None:
                tracer.error(attempt, exc)
            counters["engine.convergence_errors"] = (
                counters.get("engine.convergence_errors", 0) + 1
            )
            if attempt < retries:
                attempt += 1
                counters["engine.retries"] = counters.get("engine.retries", 0) + 1
                continue
            return _finish(tracer, _failure(task, exc, attempt + 1, start, counters))
        except TaskTimeout as exc:
            if tracer is not None:
                tracer.error(attempt, exc)
            counters["engine.timeouts"] = counters.get("engine.timeouts", 0) + 1
            return _finish(tracer, _failure(task, exc, attempt + 1, start, counters))
        except Exception as exc:  # noqa: BLE001 — the pool must survive
            if tracer is not None:
                tracer.error(attempt, exc)
            return _finish(tracer, _failure(task, exc, attempt + 1, start, counters))


def _finish(tracer, outcome: TaskOutcome) -> TaskOutcome:
    return tracer.finish(outcome) if tracer is not None else outcome


def _failure(task, exc, attempts, start, counters) -> TaskOutcome:
    return TaskOutcome(
        index=task.index,
        status="failed",
        value=None,
        attempts=attempts,
        wall_s=time.perf_counter() - start,
        error_type=type(exc).__name__,
        error="".join(traceback.format_exception_only(exc)).strip(),
        counters=counters,
    )


def _merge_counts(into: dict[str, int], source: dict[str, int]) -> None:
    for name, n in source.items():
        into[name] = into.get(name, 0) + n
