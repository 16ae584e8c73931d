"""repro.telemetry — zero-dependency observability for the SPICE core.

Off by default with a guarded no-op fast path; enable a session to
collect counters, histograms, wall-clock timers, hierarchical spans,
and a structured JSON event log from the solvers.  See
:mod:`repro.telemetry.core` for the primitives,
:mod:`repro.telemetry.manifest` for the per-run record (the one JSON
rollup, with its Prometheus text beside it), and
:mod:`repro.telemetry.diag` for the ``repro diag`` report.
"""

from repro.telemetry.core import (
    LEVELS,
    Histogram,
    TelemetrySession,
    active,
    disable,
    enable,
    enabled,
)
from repro.telemetry.diag import format_diag_report, load_manifests
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifest_path,
    result_checksum,
    write_manifest,
)

__all__ = [
    "LEVELS",
    "Histogram",
    "TelemetrySession",
    "active",
    "disable",
    "enable",
    "enabled",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "manifest_path",
    "result_checksum",
    "write_manifest",
    "format_diag_report",
    "load_manifests",
]
