"""repro.obs — cross-process observability pipeline.

Built on :mod:`repro.telemetry` (in-process counters, spans, events and
the run manifest) and consumed by the batch engine, this package
carries structure *across* the worker-process boundary:

* :mod:`repro.obs.sink` — per-process JSONL sinks, flushed per
  record so a killed worker loses at most its in-flight task; each
  session's span records and events (at or above its log level) land
  there under the deterministic ids of its
  :class:`~repro.telemetry.core.TraceContext`.
* :mod:`repro.obs.trace` — merge of all sinks into one run-level
  ``trace.json`` (``repro.obs.trace/v1``, the only trace format) plus
  the analytics behind ``repro trace
  summary|timeline|slowest|convergence`` (Gantt lanes, wall-time
  ranking, ConvergenceError forensics).
* :mod:`repro.obs.bench` — bench-regression tracking over the
  ``BENCH_*.json`` artifacts (``repro bench history|check``).

The run manifest and the trace stay two files, joined by the
manifest's ``trace_id``.  Everything is plain-Python and
dependency-free, like the telemetry layer it extends.
"""

from repro.obs.sink import SINK_SCHEMA, SpanSink
from repro.obs.trace import TRACE_SCHEMA, load_trace, merge_trace, summarize_trace

__all__ = [
    "SINK_SCHEMA",
    "SpanSink",
    "TRACE_SCHEMA",
    "load_trace",
    "merge_trace",
    "summarize_trace",
]
