"""Bench-regression tracking over the ``BENCH_*.json`` artifacts.

Every benchmark in ``benchmarks/`` emits a ``BENCH_<name>.json`` at the
repo root with a schema-tagged payload.  This module normalizes each
into one *headline record* — the metric that must not regress — and
appends them to ``results/bench_history.jsonl`` so the performance
trajectory of the repo survives across runs and machines:

* ``repro.bench.engine/v1`` / ``repro.bench.char/v1`` /
  ``repro.bench.spice_core/v1`` / ``repro.bench.spice_batch/v1`` —
  ``speedup`` (higher is better), gated by the file's own
  ``min_speedup``/``gate``;
* ``repro.bench.telemetry/v1`` / ``repro.bench.verify/v1`` —
  ``disabled_overhead_guard.overhead_fraction`` (lower is better),
  gated by the file's ``budget_fraction``.

``check_history`` judges only benches whose schema family is still in
:data:`HEADLINES`; a deleted bench's records stay in the history (shown
as ``retired``) but no longer gate.  It flags two kinds of regression:
a hard-limit breach (the latest value violates its own gate) and a
trajectory drop (a higher-is-better metric fell more than
``tolerance`` below the median of its previous entries — how a 3.75x
or 2.4x speedup silently eroding gets caught).  Lower-is-better
metrics and the :data:`GATE_ONLY` benches are judged on their hard
limit only: a 0.05 % overhead doubling to 0.1 % is jitter, not a
regression.

``repro bench history|check`` and ``scripts/bench_track.py`` are the
entry points; CI appends fresh records and fails on ``check``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.telemetry.diag import format_table

__all__ = [
    "RECORD_SCHEMA",
    "DEFAULT_HISTORY",
    "bench_record",
    "collect_bench_files",
    "append_history",
    "load_history",
    "check_history",
    "format_history",
]

RECORD_SCHEMA = "repro.obs.bench-record/v1"
DEFAULT_HISTORY = "results/bench_history.jsonl"

#: schema prefix -> (dotted path of headline value, direction, dotted
#: path of the hard limit baked into the bench file itself)
HEADLINES: dict[str, tuple[str, str, str | None]] = {
    "repro.bench.engine": ("speedup", "higher", "min_speedup"),
    "repro.bench.char": ("speedup", "higher", "min_speedup"),
    "repro.bench.spice_core": ("speedup", "higher", "gate"),
    "repro.bench.spice_batch": ("speedup", "higher", "gate"),
    "repro.bench.array": ("speedup", "higher", "min_speedup"),
    "repro.bench.serve": ("p99_warm_s", "lower", "gate_p99_s"),
    "repro.bench.telemetry": (
        "disabled_overhead_guard.overhead_fraction",
        "lower",
        "disabled_overhead_guard.budget_fraction",
    ),
    "repro.bench.verify": (
        "disabled_overhead_guard.overhead_fraction",
        "lower",
        "disabled_overhead_guard.budget_fraction",
    ),
}

#: Higher-is-better benches judged on their hard gate only.  char's
#: ratio, cold build over warm rebuild, falls whenever a faster solver
#: shortens the cold build.
GATE_ONLY = frozenset({"char"})


def _dig(payload: dict, dotted: str):
    value = payload
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def bench_record(payload: dict, source: str) -> dict | None:
    """Normalize one ``BENCH_*.json`` payload into a headline record.

    Unknown schemas fall back to a top-level ``speedup`` field when one
    exists (higher is better, no hard limit); otherwise ``None`` — the
    file is skipped rather than mis-tracked.
    """
    schema = str(payload.get("schema", ""))
    family = schema.split("/")[0]
    headline = HEADLINES.get(family)
    if headline is None:
        if isinstance(payload.get("speedup"), (int, float)):
            headline = ("speedup", "higher", None)
        else:
            return None
    value_path, direction, limit_path = headline
    value = _dig(payload, value_path)
    if not isinstance(value, (int, float)):
        return None
    bench = family.rsplit(".", 1)[-1] if family else Path(source).stem
    limit = _dig(payload, limit_path) if limit_path else None
    return {
        "schema": RECORD_SCHEMA,
        "bench": bench,
        "bench_schema": schema,
        "created_unix": float(payload.get("created_unix", 0.0)),
        "recorded_unix": time.time(),
        "metric": value_path,
        "direction": direction,
        "value": float(value),
        "limit": float(limit) if isinstance(limit, (int, float)) else None,
        "source": source,
    }


def collect_bench_files(root: str | Path = ".") -> list[Path]:
    """Every ``BENCH_*.json`` directly under ``root``, sorted by name."""
    return sorted(Path(root).glob("BENCH_*.json"))


def load_history(history_path: str | Path) -> list[dict]:
    """All parseable records from the history log (torn tails skipped)."""
    path = Path(history_path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("schema") == RECORD_SCHEMA:
            records.append(record)
    return records


def append_history(records: list[dict], history_path: str | Path) -> int:
    """Append new records; entries already present are skipped.

    Identity is ``(bench, created_unix)`` — the benchmark's own
    creation stamp — so re-running the tracker over unchanged BENCH
    files is idempotent.
    """
    path = Path(history_path)
    existing = {
        (r.get("bench"), r.get("created_unix")) for r in load_history(path)
    }
    fresh = [
        r for r in records
        if r is not None and (r["bench"], r["created_unix"]) not in existing
    ]
    if fresh:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            for record in fresh:
                handle.write(json.dumps(record) + "\n")
            handle.flush()
    return len(fresh)


def _grouped(history: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for record in history:
        groups.setdefault(record["bench"], []).append(record)
    for records in groups.values():
        records.sort(key=lambda r: (r.get("created_unix", 0.0), r.get("recorded_unix", 0.0)))
    return groups


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _retired(record: dict) -> bool:
    """Whether a record's bench family is gone from :data:`HEADLINES`."""
    return str(record.get("bench_schema", "")).split("/")[0] not in HEADLINES


def check_history(history: list[dict], tolerance: float = 0.25) -> list[str]:
    """Regression report over the history; empty list means healthy.

    For each bench still in :data:`HEADLINES`, the *latest* record is
    judged against (a) its hard limit and (b), for higher-is-better
    metrics outside :data:`GATE_ONLY` with at least one prior entry, the
    median of all previous values minus ``tolerance`` (fractional).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    problems: list[str] = []
    for bench, records in sorted(_grouped(history).items()):
        latest = records[-1]
        if _retired(latest):
            continue
        value = latest["value"]
        limit = latest.get("limit")
        direction = latest.get("direction", "higher")
        if limit is not None:
            if direction == "higher" and value < limit:
                problems.append(
                    f"{bench}: {latest['metric']} = {value:.4g} is below its "
                    f"hard gate {limit:.4g}"
                )
            elif direction == "lower" and value > limit:
                problems.append(
                    f"{bench}: {latest['metric']} = {value:.4g} exceeds its "
                    f"budget {limit:.4g}"
                )
        previous = [r["value"] for r in records[:-1]]
        if direction == "higher" and previous and bench not in GATE_ONLY:
            baseline = _median(previous)
            floor = (1.0 - tolerance) * baseline
            if value < floor:
                problems.append(
                    f"{bench}: {latest['metric']} = {value:.4g} dropped more "
                    f"than {tolerance:.0%} below its baseline median "
                    f"{baseline:.4g} (over {len(previous)} prior run(s))"
                )
    return problems


def format_history(history: list[dict], tolerance: float = 0.25) -> str:
    """Per-bench history table with latest/baseline/limit/status."""
    if not history:
        return "(bench history is empty — run scripts/bench_track.py first)"
    problem_benches = {p.split(":", 1)[0] for p in check_history(history, tolerance)}
    header = ["bench", "metric", "runs", "latest", "baseline", "limit", "status"]
    rows = []
    for bench, records in sorted(_grouped(history).items()):
        latest = records[-1]
        previous = [r["value"] for r in records[:-1]]
        direction = latest.get("direction", "higher")
        limit = latest.get("limit")
        limit_text = "-"
        if limit is not None:
            limit_text = (">=" if direction == "higher" else "<=") + f"{limit:.4g}"
        rows.append(
            [
                bench,
                latest["metric"],
                str(len(records)),
                f"{latest['value']:.4g}",
                f"{_median(previous):.4g}" if previous else "-",
                limit_text,
                "retired" if _retired(latest)
                else "REGRESSED" if bench in problem_benches else "ok",
            ]
        )
    return "\n".join(["== bench history ==", *format_table(header, rows)])
