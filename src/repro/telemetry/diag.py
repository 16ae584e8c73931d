"""Convergence-forensics summary report over saved run manifests.

``python -m repro diag [paths...]`` loads every ``*_manifest.json``
under the given files/directories (default ``results/``) and prints a
per-experiment solver health table: wall time, Newton effort, which DC
fallback tiers fired, and the transient accept/reject balance.  The
point is trend-spotting — a run that suddenly needs gmin stepping or
rejects 30 % of its steps shows up here without rerunning anything.

Follow-up sections appear when the manifests carry the relevant
counters: an *engine* table (Jacobian stamp/reuse split, retries,
timeouts, task success) for runs that went through the batch engine, a
*batch solver* table (stacked-Newton runs/members, member
retry/failure split, tick and assembly counts, sparse-vs-dense system
selection) for runs using the batched SPICE tier, a *char* table
(store and serve hit/miss, points computed/failed) for
characterization-store activity, and a *wl_crit* table (probes, the
accepted steps probes took over from earlier probes, probes ended by
the latch rule) for runs with WL_crit searches.

:func:`format_table` is the one fixed-width table printer; ``repro
trace``, ``repro bench history`` and experiment result tables use it
too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["load_manifests", "format_diag_report", "format_table"]

_TIER_LABELS = (
    ("warm_start", "warm"),
    ("cold_start", "cold"),
    ("gmin_stepping", "gmin"),
    ("source_stepping", "src"),
)


def format_table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Left-aligned columns two spaces apart, under a dashed rule."""
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return lines


def load_manifests(paths) -> list[dict]:
    """Load manifests from files and/or directories, sorted by id.

    Non-manifest JSON files (e.g. the result tables that share the
    directory) are skipped by schema check, not filename guessing.  An
    unreadable or torn file is skipped too, with one line on stderr
    naming it, so a damaged run never vanishes from the report unseen.
    """
    candidates: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates.extend(sorted(entry.glob("*_manifest.json")))
        elif entry.exists():
            candidates.append(entry)
    manifests = []
    for path in candidates:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            print(f"note: skipping unreadable {path}", file=sys.stderr)
            continue
        if isinstance(payload, dict) and str(payload.get("schema", "")).startswith(
            "repro.run-manifest/"
        ):
            manifests.append(payload)
    manifests.sort(key=lambda m: m.get("experiment_id", ""))
    return manifests


def _fallback_summary(manifest: dict, counters: dict) -> str:
    parts = [
        f"{label}:{counters[f'dcop.converged.{tier}']}"
        for tier, label in _TIER_LABELS
        if counters.get(f"dcop.converged.{tier}")
    ]
    return " ".join(parts) if parts else "-"


def _count(key: str):
    return lambda manifest, counters: str(counters.get(key, 0))


def _pair(a: str, b: str):
    return lambda manifest, counters: f"{counters.get(a, 0)}/{counters.get(b, 0)}"


def _experiment(manifest: dict, counters: dict) -> str:
    return str(manifest.get("experiment_id", "?"))


def _transient_balance(manifest: dict, counters: dict) -> str:
    rejected = counters.get("transient.rejected_newton", 0) + counters.get(
        "transient.rejected_dv_limit", 0
    )
    return f"{counters.get('transient.steps_accepted', 0)}/{rejected}"


def _jacobian_reuse(manifest: dict, counters: dict) -> str:
    stamps = counters.get("newton.jacobian_stamps", 0)
    reuses = counters.get("newton.jacobian_reuses", 0)
    return f"{100.0 * reuses / (stamps + reuses) if stamps + reuses else 0.0:.0f}%"


def _tasks_ok(manifest: dict, counters: dict) -> str:
    total = counters.get("engine.tasks_total", 0)
    failed = counters.get("engine.tasks_failed", 0)
    return f"{total - failed}/{total}" if total else "-"


def _members_split(manifest: dict, counters: dict) -> str:
    members = counters.get("batch.members", 0)
    retried = counters.get("batch.member_retries", 0)
    failed = counters.get("batch.member_failures", 0)
    return f"{members - failed}/{retried}/{failed}" if members else "-"


_SECTIONS = (
    # (title, gating counters (none: always shown), columns)
    ("solver", (), (
        ("experiment", _experiment),
        ("wall (s)", lambda manifest, _: f"{manifest.get('wall_time_s', 0.0):.2f}"),
        ("dc solves", _count("dcop.solves")),
        ("newton iters", _count("newton.iterations")),
        ("fallback tiers", _fallback_summary),
        ("tran acc/rej", _transient_balance),
        ("checksum", lambda manifest, _: manifest.get("result", {}).get(
            "checksum_sha256", "")[:12]),
    )),
    ("engine", (
        "newton.jacobian_stamps",
        "newton.jacobian_reuses",
        "engine.retries",
        "engine.timeouts",
        "engine.convergence_errors",
        "engine.tasks_total",
    ), (
        ("experiment", _experiment),
        ("jac stamp/reuse", _pair("newton.jacobian_stamps", "newton.jacobian_reuses")),
        ("reuse", _jacobian_reuse),
        ("retries", _count("engine.retries")),
        ("timeouts", _count("engine.timeouts")),
        ("conv errors", _count("engine.convergence_errors")),
        ("tasks ok", _tasks_ok),
    )),
    ("batch solver", (
        "batch.runs",
        "batch.members",
        "mna.sparse_selected",
        "mna.dense_selected",
    ), (
        ("experiment", _experiment),
        ("runs", _count("batch.runs")),
        ("members", _count("batch.members")),
        ("ok/retried/failed", _members_split),
        ("ticks", _count("batch.ticks")),
        ("assemblies", _count("batch.member_assemblies")),
        ("sparse/dense", _pair("mna.sparse_selected", "mna.dense_selected")),
    )),
    ("char", (
        "char.store.hits",
        "char.store.misses",
        "char.serve.hits",
        "char.serve.misses",
        "char.points_computed",
        "char.points_failed",
    ), (
        ("experiment", _experiment),
        ("store hit/miss", _pair("char.store.hits", "char.store.misses")),
        ("serve hit/miss", _pair("char.serve.hits", "char.serve.misses")),
        ("computed", _count("char.points_computed")),
        ("failed", _count("char.points_failed")),
    )),
    ("wl_crit", ("wlcrit.steps_resumed", "wlcrit.probes_latched"), (
        ("experiment", _experiment),
        ("transients", _count("transient.simulations")),
        ("steps resumed", _count("wlcrit.steps_resumed")),
        ("probes latched", _count("wlcrit.probes_latched")),
    )),
)


def format_diag_report(manifests: list[dict]) -> str:
    """Solver health tables, one row per manifest.

    Always renders the solver table; every other section is appended
    only when at least one manifest recorded one of its gating
    counters, and lists only those manifests, so pre-engine manifests
    keep their old report shape.
    """
    lines: list[str] = []
    for title, gate, columns in _SECTIONS:
        rows = []
        for manifest in manifests:
            counters = manifest.get("telemetry", {}).get("counters", {})
            if gate and not any(counters.get(key) for key in gate):
                continue
            rows.append([cell(manifest, counters) for _, cell in columns])
        if gate and not rows:
            continue
        if lines:
            lines.append("")
        lines.append(f"== {title} diagnostics ==")
        lines.extend(format_table([name for name, _ in columns], rows))
        if not rows:
            lines.append("(no run manifests found — run an experiment with --profile)")
    return "\n".join(lines)
