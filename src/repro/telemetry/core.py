"""Telemetry primitives: counters, histograms, timers, spans, events.

The simulation core (Newton solver, transient integrator, device
tables) is instrumented against this module.  Telemetry is **off by
default**: every instrumentation point starts with one call to
:func:`active`, which returns ``None`` unless a session has been
installed, so the disabled cost is a single module-global read per
instrumented operation (verified by ``benchmarks/test_telemetry_overhead.py``).

A :class:`TelemetrySession` aggregates three metric families plus a
structured event log:

* **counters** — monotonically increasing integers (``tel.count(name, n)``);
* **histograms** — count/sum/min/max plus a bounded, uniformly
  sampled reservoir for percentile estimates (``tel.observe(name, value)``);
* **timers** — histograms of wall-clock seconds (``tel.add_time`` or
  the ``tel.time_block(name)`` context manager);
* **events** — level-filtered structured records (``tel.event``),
  timestamped relative to session start and tagged with the current
  span path.

Spans (``with tel.span("experiment.fig04"): ...``) nest; each one
records a timer under ``span.<path>`` and one span record (id, parent,
start, duration), from which a trace reconstructs the call hierarchy
of a run.

Everything is plain-Python and dependency-free; sessions are not
thread-safe (the simulator is single-threaded).
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "LEVELS",
    "Histogram",
    "TelemetrySession",
    "TraceContext",
    "active",
    "atomic_write_text",
    "attempt_span_id",
    "batch_span_id",
    "derive_span_id",
    "disable",
    "enable",
    "enabled",
    "mint_trace_id",
    "task_span_id",
]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def mint_trace_id() -> str:
    """A fresh 64-bit random trace id (16 hex chars)."""
    return os.urandom(8).hex()


def derive_span_id(trace_id: str, parent_id: str, name: str, seq: int) -> str:
    """Deterministic span id from the span's position in the trace.

    A pure function of ``(trace_id, parent_id, name, seq)``, so two runs
    of the same deterministic workload under the same trace id produce
    identical span ids regardless of worker count or completion order —
    the property the cross-worker merge determinism tests pin.
    """
    digest = hashlib.sha256(
        f"{trace_id}|{parent_id}|{name}|{seq}".encode()
    ).hexdigest()
    return digest[:16]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via write-then-rename.

    Same pattern as the char store's npz payloads: a SIGKILL mid-write
    leaves either the old file or the new one, never a truncated mix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


# The engine's span ids are pure functions of the trace id and the
# span's logical position — never of pids, worker count or completion
# order — so a merged trace of the same seeded run is identical at any
# ``--jobs J`` modulo timestamps.


def batch_span_id(trace_id: str, run_key: str) -> str:
    """The deterministic span id of one engine batch."""
    return derive_span_id(trace_id, "", f"batch[{run_key}]", 0)


def task_span_id(trace_id: str, batch_id: str, index: int) -> str:
    """The deterministic span id of task ``index`` within a batch."""
    return derive_span_id(trace_id, batch_id, f"task[{index}]", 0)


def attempt_span_id(trace_id: str, task_id: str, attempt: int) -> str:
    """The deterministic span id of one task attempt."""
    return derive_span_id(trace_id, task_id, f"attempt[{attempt}]", 0)


@dataclass(frozen=True)
class TraceContext:
    """Where a session's spans hang in a cross-process trace.

    ``trace_id`` names the run-level trace; ``parent_span_id`` is the
    id every *top-level* span of this session parents to (e.g. the
    worker attempt span for a task's solver spans); ``directory`` is
    the trace directory whose per-process sinks the spans and events
    stream to.  Plain picklable data, so the engine hands one to every
    worker by value.  Sessions without a context still record spans,
    under a privately minted trace id.
    """

    trace_id: str
    parent_span_id: str = ""
    directory: str | None = None

    @staticmethod
    def for_batch(directory, run_key: str, trace_id: str | None = None) -> "TraceContext":
        """The context of one engine batch (fresh trace id unless given)."""
        trace_id = trace_id or mint_trace_id()
        return TraceContext(trace_id, batch_span_id(trace_id, run_key), str(directory))


class Histogram:
    """Streaming summary of one observed quantity.

    Exact count/sum/min/max plus a bounded reservoir of ``max_samples``
    observations for percentile estimates, so million-step campaigns
    need no unbounded memory.  Uniform reservoir sampling (Algorithm R)
    makes the quantiles describe the whole run, not its start; each
    histogram draws from its own fixed-seed generator, so the same
    observations always give the same snapshot.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "samples", "max_samples", "_rng")

    def __init__(self, max_samples: int = 512):
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples: list[float] = []
        self.max_samples = max_samples
        self._rng: random.Random | None = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        if self._rng is None:
            self._rng = random.Random(0)
        slot = int(self._rng.random() * self.count)
        if slot < self.max_samples:
            self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0-100) from the sample reservoir."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = (len(ordered) - 1) * min(max(q, 0.0), 100.0) / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

    def snapshot(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
        }


class TelemetrySession:
    """One enabled telemetry collection window."""

    def __init__(
        self,
        log_level: str = "info",
        max_events: int = 100_000,
        max_spans: int = 100_000,
        clock=time.perf_counter,
        trace: TraceContext | None = None,
    ):
        if log_level not in LEVELS:
            raise ValueError(
                f"unknown log level {log_level!r}; choose from {sorted(LEVELS)}"
            )
        self.log_level = log_level
        self.max_events = max_events
        self.max_spans = max_spans
        self.clock = clock
        self.trace = trace or TraceContext(trace_id=mint_trace_id())
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, Histogram] = {}
        self.events: list[dict] = []
        self.spans: list[dict] = []
        self.dropped_events = 0
        self.dropped_spans = 0
        self._span_stack: list[str] = []
        self._span_ids: list[str] = []
        self._seq = 0
        self._span_seq = 0
        self.started = clock()
        self.started_unix = time.time()

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    # -- metrics ---------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment the named counter by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    def add_time(self, name: str, seconds: float) -> None:
        """Record one wall-clock duration into the named timer."""
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Histogram()
        timer.record(seconds)

    @contextmanager
    def time_block(self, name: str):
        """Time the enclosed block into the named timer."""
        start = self.clock()
        try:
            yield
        finally:
            self.add_time(name, self.clock() - start)

    # -- events and spans -------------------------------------------------------

    @property
    def span_path(self) -> str:
        return "/".join(self._span_stack)

    def event(self, name: str, level: str = "info", **fields) -> None:
        """Append one structured event (dropped below the session level)."""
        if LEVELS.get(level, 0) < LEVELS[self.log_level]:
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self._seq += 1
        # Core keys win over caller fields so a field named "t" or
        # "name" cannot corrupt the record structure.
        record = dict(fields) if fields else {}
        record.update(
            seq=self._seq,
            t=self.clock() - self.started,
            level=level,
            name=name,
        )
        if self._span_stack:
            record["span"] = self.span_path
        self.events.append(record)

    @contextmanager
    def span(self, name: str, **fields):
        """Hierarchical timed section; nests with enclosing spans.

        Besides the ``span.<path>`` timer, each completed span appends
        one structured *span record* (id, parent id, name, unix start
        time, duration, fields) to :attr:`spans`.  Span ids derive
        deterministically from the session's :class:`TraceContext` (see
        :func:`derive_span_id`), so worker sessions configured with the
        same context produce identical span trees for identical work —
        the substrate of the cross-process trace pipeline
        (:mod:`repro.obs`).
        """
        parent_id = (
            self._span_ids[-1] if self._span_ids else self.trace.parent_span_id
        )
        self._span_seq += 1
        span_id = derive_span_id(self.trace.trace_id, parent_id, name, self._span_seq)
        self._span_stack.append(name)
        self._span_ids.append(span_id)
        path = self.span_path
        t0_unix = time.time()
        start = self.clock()
        try:
            yield self
        finally:
            duration = self.clock() - start
            self.add_time(f"span.{path}", duration)
            self._span_stack.pop()
            self._span_ids.pop()
            if len(self.spans) < self.max_spans:
                record = {
                    "id": span_id,
                    "parent": parent_id,
                    "name": name,
                    "t0_unix": t0_unix,
                    "dur_s": duration,
                }
                if fields:
                    record["fields"] = dict(fields)
                self.spans.append(record)
            else:
                self.dropped_spans += 1

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """All metric families as one plain-JSON-serializable dict."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
            "timers": {
                name: timer.snapshot()
                for name, timer in sorted(self.timers.items())
            },
        }


# -- global session management --------------------------------------------------

_session: TelemetrySession | None = None


def active() -> TelemetrySession | None:
    """The installed session, or ``None`` when telemetry is off.

    This is the hot-path guard: instrumentation points bail out on the
    ``None`` return, so keep this function trivial.
    """
    return _session


def enable(log_level: str = "info", **kwargs) -> TelemetrySession:
    """Install (and return) a fresh global session."""
    global _session
    _session = TelemetrySession(log_level=log_level, **kwargs)
    return _session


def disable() -> TelemetrySession | None:
    """Remove the global session; returns it for post-hoc inspection."""
    global _session
    session, _session = _session, None
    return session


@contextmanager
def enabled(log_level: str = "info", **kwargs):
    """Scoped telemetry: installs a session, restores the previous one.

    Nesting is supported — an inner scope shadows (does not merge into)
    the outer session, which keeps per-experiment manifests isolated
    when a campaign loops over experiments.
    """
    global _session
    previous = _session
    session = TelemetrySession(log_level=log_level, **kwargs)
    _session = session
    try:
        yield session
    finally:
        _session = previous
