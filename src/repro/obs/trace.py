"""Run-level trace merge and timeline analytics.

:func:`merge_trace` folds every per-process JSONL sink under a trace
directory into one ``trace.json`` (written atomically), ordered
deterministically so that two merges of the same run — at any worker
count — differ only in timestamps.

The analytics behind the ``repro trace`` CLI verbs all read that merged
file:

* ``summary`` — span population, scheduler wall time, task coverage
  (fraction of scheduler wall time with at least one task in flight),
  convergence-failure totals, and a per-span-name aggregate table;
* ``timeline`` — an ASCII Gantt of task spans packed into concurrency
  lanes, reconstructing where the run's wall time went;
* ``slowest`` — tasks ranked by wall time with their Newton effort and
  retry counts (read from the task spans' counter fields);
* ``convergence`` — every ConvergenceError forensics event across all
  workers, grouped per task.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.sink import SINK_SCHEMA
from repro.telemetry.core import atomic_write_text
from repro.telemetry.diag import format_table

__all__ = [
    "TRACE_SCHEMA",
    "merge_trace",
    "load_trace",
    "summarize_trace",
    "format_summary",
    "format_timeline",
    "format_slowest",
    "format_convergence",
]

TRACE_SCHEMA = "repro.obs.trace/v1"
MERGED_NAME = "trace.json"


# -- merge ----------------------------------------------------------------------


def _read_sink(path: Path) -> tuple[list[dict], list[dict], list[dict]]:
    """(metas, spans, events) from one sink file; torn tails ignored."""
    metas: list[dict] = []
    spans: list[dict] = []
    events: list[dict] = []
    try:
        text = path.read_text()
    except OSError:
        return metas, spans, events
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn line from a killed process
        kind = record.get("kind")
        if kind == "meta":
            metas.append(record)
        elif kind == "span":
            record.pop("kind", None)
            spans.append(record)
        elif kind == "event":
            record.pop("kind", None)
            events.append(record)
    return metas, spans, events


def merge_trace(trace_dir: str | Path) -> Path:
    """Merge every JSONL sink under ``trace_dir`` into its ``trace.json``.

    A ``*.jsonl`` file is a sink — read, and listed in ``sources`` —
    only when it holds a ``meta`` record of schema ``SINK_SCHEMA``, so
    other logs kept in the directory (an engine checkpoint, say) are
    left out by schema check, not filename guessing.

    Spans are deduplicated by id (last record wins — a re-merged run
    after more batches refreshes rather than duplicates) and sorted by
    ``(t0_unix, id)``; the id tie-break keeps the order deterministic
    for spans born in the same clock tick.  The output is written
    atomically, so a concurrent reader never sees a half-merged file.
    """
    trace_dir = Path(trace_dir)
    spans_by_id: dict[str, dict] = {}
    events: list[dict] = []
    sources: list[str] = []
    trace_ids: set[str] = set()
    for path in sorted(trace_dir.glob("*.jsonl")):
        metas, spans, sink_events = _read_sink(path)
        if not any(meta.get("schema") == SINK_SCHEMA for meta in metas):
            continue
        sources.append(path.name)
        for meta in metas:
            if meta.get("trace_id"):
                trace_ids.add(meta["trace_id"])
        for span in spans:
            spans_by_id[span.get("id", "")] = span
        events.extend(sink_events)
    spans = sorted(
        spans_by_id.values(), key=lambda s: (s.get("t0_unix", 0.0), s.get("id", ""))
    )
    events.sort(key=lambda e: (e.get("t_unix", 0.0), e.get("name", "")))
    payload = {
        "schema": TRACE_SCHEMA,
        "created_unix": time.time(),
        "trace_ids": sorted(trace_ids),
        "sources": sources,
        "spans": spans,
        "events": events,
    }
    return atomic_write_text(trace_dir / MERGED_NAME, json.dumps(payload, indent=1))


def load_trace(path: str | Path) -> dict:
    """Load a merged trace; accepts the file or its trace directory."""
    path = Path(path)
    if path.is_dir():
        path = path / MERGED_NAME
    if not path.exists():
        raise FileNotFoundError(
            f"no merged trace at {path} — run a traced experiment "
            "(--trace-dir) or merge_trace() the sink directory first"
        )
    payload = json.loads(path.read_text())
    if payload.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path} has schema {payload.get('schema')!r}, expected {TRACE_SCHEMA!r}"
        )
    return payload


# -- interval helpers ------------------------------------------------------------


def _intervals(spans: list[dict]) -> list[tuple[float, float]]:
    return [
        (s["t0_unix"], s["t0_unix"] + max(s.get("dur_s", 0.0), 0.0)) for s in spans
    ]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of the intervals."""
    if not intervals:
        return 0.0
    total = 0.0
    start = end = None
    for lo, hi in sorted(intervals):
        if start is None:
            start, end = lo, hi
        elif lo <= end:
            end = max(end, hi)
        else:
            total += end - start
            start, end = lo, hi
    total += end - start
    return total


def _clip(intervals, window) -> list[tuple[float, float]]:
    lo_w, hi_w = window
    return [
        (max(lo, lo_w), min(hi, hi_w))
        for lo, hi in intervals
        if min(hi, hi_w) > max(lo, lo_w)
    ]


# -- analytics ------------------------------------------------------------------


def _by_name(trace: dict, name: str) -> list[dict]:
    return [s for s in trace.get("spans", []) if s.get("name") == name]


def _field(span: dict, key: str, default=None):
    return span.get("fields", {}).get(key, default)


def _counter(span: dict, key: str, default: int = 0) -> int:
    return int(_field(span, "counters", {}).get(key, default))


def summarize_trace(trace: dict) -> dict:
    """Headline statistics of one merged trace (plain dict, testable)."""
    spans = trace.get("spans", [])
    tasks = _by_name(trace, "task")
    batches = _by_name(trace, "batch")
    attempts = _by_name(trace, "attempt")
    failed = [t for t in tasks if _field(t, "status") == "failed"]
    convergence_events = [
        e for e in trace.get("events", [])
        if e.get("name") == "convergence_error"
    ]

    batch_intervals = _intervals(batches)
    scheduler_wall = _union_length(batch_intervals)
    coverage = 0.0
    if scheduler_wall > 0.0 and tasks:
        covered = _union_length(
            [
                clipped
                for window in batch_intervals
                for clipped in _clip(_intervals(tasks), window)
            ]
        )
        coverage = covered / scheduler_wall

    run_wall = 0.0
    if spans:
        t0 = min(s["t0_unix"] for s in spans)
        t1 = max(s["t0_unix"] + s.get("dur_s", 0.0) for s in spans)
        run_wall = t1 - t0

    by_name: dict[str, dict] = {}
    for span in spans:
        stats = by_name.setdefault(
            span.get("name", "?"), {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stats["count"] += 1
        dur = span.get("dur_s", 0.0)
        stats["total_s"] += dur
        stats["max_s"] = max(stats["max_s"], dur)

    return {
        "trace_ids": trace.get("trace_ids", []),
        "spans": len(spans),
        "batches": len(batches),
        "tasks": len(tasks),
        "attempts": len(attempts),
        "failed_tasks": len(failed),
        "retried_tasks": sum(1 for t in tasks if int(_field(t, "attempts", 1)) > 1),
        "convergence_events": len(convergence_events),
        "run_wall_s": run_wall,
        "scheduler_wall_s": scheduler_wall,
        "task_coverage": coverage,
        "by_name": by_name,
    }


def format_summary(trace: dict) -> str:
    s = summarize_trace(trace)
    lines = ["== trace summary =="]
    lines.append(f"trace ids      : {', '.join(s['trace_ids']) or '(none recorded)'}")
    lines.append(
        f"spans          : {s['spans']} "
        f"({s['batches']} batches, {s['tasks']} tasks, {s['attempts']} attempts)"
    )
    lines.append(f"run wall       : {s['run_wall_s']:.3f} s (first span to last)")
    lines.append(
        f"scheduler wall : {s['scheduler_wall_s']:.3f} s across "
        f"{s['batches']} batch span(s)"
    )
    if s["scheduler_wall_s"] > 0.0:
        lines.append(
            f"task coverage  : {100.0 * s['task_coverage']:.1f} % of scheduler "
            "wall had >=1 task in flight"
        )
    lines.append(
        f"failures       : {s['failed_tasks']} failed task(s), "
        f"{s['retried_tasks']} retried, "
        f"{s['convergence_events']} convergence event(s)"
    )
    if s["by_name"]:
        lines.append("")
        lines.append("by span name:")
        header = ["name", "count", "total (s)", "mean (ms)", "max (ms)"]
        rows = []
        ordered = sorted(
            s["by_name"].items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
        for name, stats in ordered:
            mean_ms = 1e3 * stats["total_s"] / stats["count"]
            rows.append(
                [
                    name,
                    str(stats["count"]),
                    f"{stats['total_s']:.3f}",
                    f"{mean_ms:.2f}",
                    f"{1e3 * stats['max_s']:.2f}",
                ]
            )
        lines.extend(format_table(header, rows))
    return "\n".join(lines)


def _pack_lanes(tasks: list[dict]) -> list[list[dict]]:
    """First-fit packing of task spans into concurrency lanes."""
    lanes: list[list[dict]] = []
    lane_ends: list[float] = []
    for span in sorted(tasks, key=lambda s: s["t0_unix"]):
        t0 = span["t0_unix"]
        t1 = t0 + span.get("dur_s", 0.0)
        for i, end in enumerate(lane_ends):
            if t0 >= end - 1e-9:
                lanes[i].append(span)
                lane_ends[i] = t1
                break
        else:
            lanes.append([span])
            lane_ends.append(t1)
    return lanes


def format_timeline(trace: dict, width: int = 72) -> str:
    """ASCII Gantt of the run's task spans, one row per concurrency lane.

    ``#`` cells are running tasks, ``x`` cells failed tasks; lane count
    approximates the worker parallelism actually achieved.
    """
    tasks = _by_name(trace, "task")
    if not tasks:
        return "(no task spans in trace)"
    t_lo = min(s["t0_unix"] for s in tasks)
    t_hi = max(s["t0_unix"] + s.get("dur_s", 0.0) for s in tasks)
    span_s = max(t_hi - t_lo, 1e-9)
    scale = width / span_s

    lines = [
        "== task timeline ==",
        f"window {span_s:.3f} s, {len(tasks)} tasks, "
        f"{len(_pack_lanes(tasks))} lanes ('#' ok, 'x' failed)",
    ]
    for i, lane in enumerate(_pack_lanes(tasks)):
        cells = [" "] * width
        for span in lane:
            mark = "x" if _field(span, "status") == "failed" else "#"
            a = int((span["t0_unix"] - t_lo) * scale)
            b = int((span["t0_unix"] + span.get("dur_s", 0.0) - t_lo) * scale)
            b = max(b, a + 1)
            for c in range(a, min(b, width)):
                cells[c] = mark
        lines.append(f"lane {i:>2} |{''.join(cells)}|")
    lines.append(f"        0{' ' * (width - len(f'{span_s:.3f} s') - 1)}{span_s:.3f} s")
    return "\n".join(lines)


def format_slowest(trace: dict, top: int = 10) -> str:
    """Tasks ranked by wall time, with Newton effort and retries."""
    tasks = _by_name(trace, "task")
    if not tasks:
        return "(no task spans in trace)"
    ranked = sorted(tasks, key=lambda s: s.get("dur_s", 0.0), reverse=True)[:top]
    header = [
        "task",
        "wall (s)",
        "attempts",
        "newton iters",
        "dc solves",
        "tran steps",
        "status",
    ]
    rows = []
    for span in ranked:
        rows.append(
            [
                str(_field(span, "index", "?")),
                f"{span.get('dur_s', 0.0):.3f}",
                str(_field(span, "attempts", 1)),
                str(_counter(span, "newton.iterations")),
                str(_counter(span, "dcop.solves")),
                str(_counter(span, "transient.steps_accepted")),
                str(_field(span, "status", "?")),
            ]
        )
    lines = [f"== slowest tasks (top {len(ranked)} of {len(tasks)}) =="]
    lines.extend(format_table(header, rows))
    return "\n".join(lines)


def format_convergence(trace: dict) -> str:
    """ConvergenceError forensics across all workers, grouped per task."""
    events = [
        e for e in trace.get("events", []) if e.get("name") == "convergence_error"
    ]
    failed = [
        s for s in _by_name(trace, "task") if _field(s, "status") == "failed"
    ]
    if not events and not failed:
        return "(no convergence failures recorded)"
    lines = ["== convergence forensics =="]
    lines.append(
        f"{len(events)} convergence event(s), {len(failed)} task(s) "
        "failed after retries"
    )
    by_task: dict[object, list[dict]] = {}
    for event in events:
        by_task.setdefault(event.get("fields", {}).get("index", "?"), []).append(event)
    for index in sorted(by_task, key=str):
        lines.append(f"task {index}:")
        for event in by_task[index]:
            fields = event.get("fields", {})
            error = str(fields.get("error", ""))
            if len(error) > 160:
                error = error[:157] + "..."
            lines.append(
                f"  attempt {fields.get('attempt', '?')}: "
                f"[{fields.get('error_type', '?')}] {error}"
            )
    terminal = [
        s for s in failed
        if _field(s, "index", "?") not in by_task
    ]
    for span in terminal:
        lines.append(
            f"task {_field(span, 'index', '?')}: failed "
            f"[{_field(span, 'error_type', '?')}] {_field(span, 'error', '')}"
        )
    return "\n".join(lines)
