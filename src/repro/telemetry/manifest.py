"""Run manifests: the one JSON rollup of an instrumented run.

Telemetry sits below every other layer, so this module treats the
experiment result as a duck-typed table (``experiment_id``, ``header``,
``rows``, ``notes``) rather than importing :mod:`repro.experiments`.

A manifest captures what a run produced (row/column shape plus a
content checksum of the result table, where the run has one), what it
cost (wall time and the full solver-telemetry rollup) and which trace
its spans went to (``trace_id``, the join key with ``trace.json``).
:func:`write_manifest` is its one writer: the JSON file plus the same
numbers as a Prometheus text exposition (version 0.0.4) beside it,
both written atomically.  Experiment runs (``--profile``), ``repro
array --profile``, ``repro char build --metrics-out`` and the serve
daemon (``--metrics-out`` and its ``metrics`` op) all produce this
record, so regressions in solver behaviour — a new gmin-stepping
fallback, a 10x jump in rejected transient steps — are diagnosable
from the artifacts alone; ``repro diag`` renders them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.core import TelemetrySession, atomic_write_text, enabled

__all__ = [
    "MANIFEST_SCHEMA",
    "RunRecord",
    "build_manifest",
    "manifest_path",
    "recorded_run",
    "result_checksum",
    "to_prometheus",
    "write_manifest",
]

MANIFEST_SCHEMA = "repro.run-manifest/v1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _canonical(value):
    """JSON-safe canonical form (infinities become tagged strings)."""
    if isinstance(value, float) and math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def result_checksum(result) -> str:
    """SHA-256 over the canonical JSON encoding of the result table.

    Stable across runs of a deterministic experiment, so two manifests
    with different checksums mean the numbers (not just the timing)
    changed.
    """
    payload = {
        "experiment_id": result.experiment_id,
        "header": result.header,
        "rows": [[_canonical(v) for v in row] for row in result.rows],
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def build_manifest(
    experiment_id: str,
    title: str,
    result,
    session: TelemetrySession,
    wall_time_s: float,
) -> dict:
    """Assemble the manifest dict for one completed run.

    ``result`` is the run's result table, or ``None`` for runs without
    one (a characterization build, the serve daemon): their manifests
    carry no ``result`` block.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "experiment_id": experiment_id,
        "title": title,
        "created_unix": time.time(),
        "wall_time_s": wall_time_s,
        "trace_id": session.trace_id,
    }
    if result is not None:
        manifest["result"] = {
            "rows": len(result.rows),
            "columns": list(result.header),
            "notes": list(result.notes),
            "checksum_sha256": result_checksum(result),
        }
    manifest["telemetry"] = session.snapshot()
    return manifest


def manifest_path(directory: str | Path, experiment_id: str) -> Path:
    return Path(directory) / f"{experiment_id}_manifest.json"


def write_manifest(manifest: dict, path: str | Path) -> Path:
    """Write the manifest to ``path`` and its Prometheus text beside it
    (``path`` with a ``.prom`` suffix), each atomically."""
    path = Path(path)
    atomic_write_text(path.with_suffix(".prom"), to_prometheus(manifest))
    return atomic_write_text(path, json.dumps(manifest, indent=2))


@dataclass
class RunRecord:
    """What :func:`recorded_run` hands its block: the live session, and
    the slot for the run's result table."""

    session: TelemetrySession
    result: object = None


@contextmanager
def recorded_run(
    run_id: str,
    title: str,
    path: str | Path,
    *,
    span: str,
    log_level: str = "info",
    trace=None,
):
    """Collect telemetry for the enclosed block and write its manifest.

    The block runs under a fresh session (``log_level``, ``trace`` as
    for :class:`TelemetrySession`), timed as one span named ``span``; it
    stores its result table in ``record.result``.  When it ends, the
    run's manifest goes to ``path`` through :func:`write_manifest`.
    """
    with enabled(log_level=log_level, trace=trace) as session:
        record = RunRecord(session)
        start = time.perf_counter()
        with session.span(span):
            yield record
        wall = time.perf_counter() - start
        write_manifest(
            build_manifest(run_id, title, record.result, session, wall), path
        )


# -- Prometheus text exposition ----------------------------------------------


def _sanitize(name: str) -> str:
    """A legal Prometheus metric-name fragment from a telemetry name."""
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _labels(run: str | None) -> str:
    if not run:
        return ""
    escaped = run.replace("\\", "\\\\").replace('"', '\\"')
    return f'{{run="{escaped}"}}'


def _summary_lines(
    family: str, name: str, snap: dict, labels: str, prefix: str
) -> list[str]:
    metric = f"{prefix}_{_sanitize(name)}"
    if family == "timers":
        metric += "_seconds"
    lines = [f"# TYPE {metric} summary"]
    count = snap.get("count", 0)
    lines.append(f"{metric}_count{labels} {count}")
    lines.append(f"{metric}_sum{labels} {_fmt(snap.get('total', 0.0))}")
    for quantile, key in (("0.5", "p50"), ("0.9", "p90")):
        if key in snap:
            if labels:
                q_labels = labels[:-1] + f',quantile="{quantile}"}}'
            else:
                q_labels = f'{{quantile="{quantile}"}}'
            lines.append(f"{metric}{q_labels} {_fmt(snap[key])}")
    return lines


def _fmt(value) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def to_prometheus(manifest: dict, prefix: str = "repro") -> str:
    """Render a manifest (or a bare session snapshot) as Prometheus text.

    Counters become ``<prefix>_<name>_total`` counter families;
    histograms and timers become summary families (timers suffixed
    ``_seconds``).  A ``run`` label carries the manifest's
    ``experiment_id`` and a gauge its wall time.
    """
    snapshot = manifest.get("telemetry", manifest)
    labels = _labels(manifest.get("experiment_id"))
    lines = [f"# {MANIFEST_SCHEMA} generated by repro.telemetry.manifest"]
    for name, value in snapshot.get("counters", {}).items():
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{labels} {value}")
    for family in ("histograms", "timers"):
        for name, snap in snapshot.get(family, {}).items():
            lines.extend(_summary_lines(family, name, snap, labels, prefix))
    if manifest.get("wall_time_s") is not None:
        metric = f"{prefix}_run_duration_seconds"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{labels} {_fmt(manifest['wall_time_s'])}")
    return "\n".join(lines) + "\n"
