"""Per-process JSONL span sinks.

Each process participating in a traced run — the scheduler, every pool
worker, the experiment runner — streams its span and event records to
its own append-only JSONL file under the trace directory
(``<role>-<pid>.jsonl``; a pool worker reopens its file for each task).
One file per (process, role) means no cross-process locking; every
record is flushed as soon as it is written, so a SIGKILL loses at most
the record being formatted, and the
merge step (:func:`repro.obs.trace.merge_trace`) tolerates a torn final
line exactly like the engine's checkpoint reader.

Record kinds (the ``kind`` field):

* ``meta`` — one header line per file: schema, role, pid, start time;
* ``span`` — ``{id, parent, name, t0_unix, dur_s, fields?}``;
* ``event`` — ``{name, t_unix, level, fields?}``: a telemetry session's
  events (``dcop.converged``, ``verify.violation``, ...; the span path
  they fired in is the ``span`` field) and the ConvergenceError
  forensics workers emit for failed attempts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["SINK_SCHEMA", "SpanSink"]

SINK_SCHEMA = "repro.obs.sink/v1"

_EVENT_KEYS = ("seq", "t", "level", "name")
"""The keys a session event record keeps for itself; the rest are fields."""


class SpanSink:
    """Append-only JSONL writer for one process's trace records."""

    def __init__(
        self, directory: str | Path, role: str = "worker", trace_id: str | None = None
    ):
        self.directory = Path(directory)
        self.role = role
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.path = self.directory / f"{role}-{self.pid}.jsonl"
        self._handle = None

    def _open(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a")
        if self.path.stat().st_size == 0:
            meta = {
                "kind": "meta",
                "schema": SINK_SCHEMA,
                "role": self.role,
                "pid": self.pid,
                "created_unix": time.time(),
            }
            if self.trace_id:
                meta["trace_id"] = self.trace_id
            self._write(meta)

    def _write(self, record: dict) -> None:
        if self._handle is None:
            self._open()
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def write_span(
        self,
        span_id: str,
        parent_id: str,
        name: str,
        t0_unix: float,
        dur_s: float,
        **fields,
    ) -> None:
        record = {
            "kind": "span",
            "id": span_id,
            "parent": parent_id,
            "name": name,
            "t0_unix": t0_unix,
            "dur_s": dur_s,
        }
        if fields:
            record["fields"] = fields
        self._write(record)

    def write_event(self, name: str, level: str = "info", **fields) -> None:
        self._write_event(name, level, time.time(), fields)

    def _write_event(self, name: str, level: str, t_unix: float, fields: dict) -> None:
        record = {"kind": "event", "name": name, "t_unix": t_unix, "level": level}
        if fields:
            record["fields"] = fields
        self._write(record)

    def write_session(self, session) -> None:
        """Stream a telemetry session's span records and events.

        The span records already carry deterministic ids and parents
        from the session's :class:`~repro.telemetry.core.TraceContext`,
        so they are written verbatim; events (already filtered by the
        session's log level) get their unix time from the session's
        start.
        """
        for record in session.spans:
            self._write({"kind": "span", **record})
        for event in session.events:
            fields = {k: v for k, v in event.items() if k not in _EVENT_KEYS}
            self._write_event(
                event["name"], event["level"], session.started_unix + event["t"], fields
            )
        for what, dropped in (("spans", session.dropped_spans),
                              ("events", session.dropped_events)):
            if dropped:
                self.write_event(f"{what}.dropped", level="warning", count=dropped)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
