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
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["load_manifests", "format_diag_report"]

_TIER_LABELS = (
    ("warm_start", "warm"),
    ("cold_start", "cold"),
    ("gmin_stepping", "gmin"),
    ("source_stepping", "src"),
)


def load_manifests(paths) -> list[dict]:
    """Load manifests from files and/or directories, sorted by id.

    Non-manifest JSON files (e.g. the result tables that share the
    directory) are skipped by schema check, not filename guessing.
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
            continue
        if isinstance(payload, dict) and str(payload.get("schema", "")).startswith(
            "repro.run-manifest/"
        ):
            manifests.append(payload)
    manifests.sort(key=lambda m: m.get("experiment_id", ""))
    return manifests


def _fallback_summary(counters: dict) -> str:
    parts = [
        f"{label}:{counters[f'dcop.converged.{tier}']}"
        for tier, label in _TIER_LABELS
        if counters.get(f"dcop.converged.{tier}")
    ]
    return " ".join(parts) if parts else "-"


def _render_table(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return lines


_ENGINE_KEYS = (
    "newton.jacobian_stamps",
    "newton.jacobian_reuses",
    "engine.retries",
    "engine.timeouts",
    "engine.convergence_errors",
    "engine.tasks_total",
)


def _engine_rows(manifests: list[dict]) -> list[list[str]]:
    rows = []
    for manifest in manifests:
        counters = manifest.get("telemetry", {}).get("counters", {})
        if not any(counters.get(key) for key in _ENGINE_KEYS):
            continue
        stamps = counters.get("newton.jacobian_stamps", 0)
        reuses = counters.get("newton.jacobian_reuses", 0)
        reuse_pct = 100.0 * reuses / (stamps + reuses) if stamps + reuses else 0.0
        total = counters.get("engine.tasks_total", 0)
        failed = counters.get("engine.tasks_failed", 0)
        rows.append(
            [
                str(manifest.get("experiment_id", "?")),
                f"{stamps}/{reuses}",
                f"{reuse_pct:.0f}%",
                str(counters.get("engine.retries", 0)),
                str(counters.get("engine.timeouts", 0)),
                str(counters.get("engine.convergence_errors", 0)),
                f"{total - failed}/{total}" if total else "-",
            ]
        )
    return rows


_BATCH_KEYS = (
    "batch.runs",
    "batch.members",
    "mna.sparse_selected",
    "mna.dense_selected",
)


def _batch_rows(manifests: list[dict]) -> list[list[str]]:
    rows = []
    for manifest in manifests:
        counters = manifest.get("telemetry", {}).get("counters", {})
        if not any(counters.get(key) for key in _BATCH_KEYS):
            continue
        members = counters.get("batch.members", 0)
        retried = counters.get("batch.member_retries", 0)
        failed = counters.get("batch.member_failures", 0)
        rows.append(
            [
                str(manifest.get("experiment_id", "?")),
                str(counters.get("batch.runs", 0)),
                str(members),
                f"{members - failed}/{retried}/{failed}" if members else "-",
                str(counters.get("batch.ticks", 0)),
                str(counters.get("batch.member_assemblies", 0)),
                f"{counters.get('mna.sparse_selected', 0)}/"
                f"{counters.get('mna.dense_selected', 0)}",
            ]
        )
    return rows


_CHAR_KEYS = (
    "char.store.hits",
    "char.store.misses",
    "char.serve.hits",
    "char.serve.misses",
    "char.points_computed",
    "char.points_failed",
)


def _char_rows(manifests: list[dict]) -> list[list[str]]:
    rows = []
    for manifest in manifests:
        counters = manifest.get("telemetry", {}).get("counters", {})
        if not any(counters.get(key) for key in _CHAR_KEYS):
            continue
        rows.append(
            [
                str(manifest.get("experiment_id", "?")),
                f"{counters.get('char.store.hits', 0)}/"
                f"{counters.get('char.store.misses', 0)}",
                f"{counters.get('char.serve.hits', 0)}/"
                f"{counters.get('char.serve.misses', 0)}",
                str(counters.get("char.points_computed", 0)),
                str(counters.get("char.points_failed", 0)),
            ]
        )
    return rows


_WLCRIT_KEYS = ("wlcrit.steps_resumed", "wlcrit.probes_latched")


def _wlcrit_rows(manifests: list[dict]) -> list[list[str]]:
    rows = []
    for manifest in manifests:
        counters = manifest.get("telemetry", {}).get("counters", {})
        if not any(counters.get(key) for key in _WLCRIT_KEYS):
            continue
        rows.append(
            [
                str(manifest.get("experiment_id", "?")),
                str(counters.get("transient.simulations", 0)),
                str(counters.get("wlcrit.steps_resumed", 0)),
                str(counters.get("wlcrit.probes_latched", 0)),
            ]
        )
    return rows


def format_diag_report(manifests: list[dict]) -> str:
    """Solver health tables, one row per manifest.

    Always renders the solver table; the engine, batch, char and
    wl_crit sections are appended only when at least one manifest
    recorded those counters, so pre-engine manifests keep their old
    report shape.
    """
    header = [
        "experiment",
        "wall (s)",
        "dc solves",
        "newton iters",
        "fallback tiers",
        "tran acc/rej",
        "checksum",
    ]
    rows = []
    for manifest in manifests:
        counters = manifest.get("telemetry", {}).get("counters", {})
        rejected = counters.get("transient.rejected_newton", 0) + counters.get(
            "transient.rejected_dv_limit", 0
        )
        checksum = manifest.get("result", {}).get("checksum_sha256", "")
        rows.append(
            [
                str(manifest.get("experiment_id", "?")),
                f"{manifest.get('wall_time_s', 0.0):.2f}",
                str(counters.get("dcop.solves", 0)),
                str(counters.get("newton.iterations", 0)),
                _fallback_summary(counters),
                f"{counters.get('transient.steps_accepted', 0)}/{rejected}",
                checksum[:12],
            ]
        )
    lines = _render_table("== solver diagnostics ==", header, rows)
    if not rows:
        lines.append("(no run manifests found — run an experiment with --profile)")

    engine_rows = _engine_rows(manifests)
    if engine_rows:
        lines.append("")
        lines.extend(
            _render_table(
                "== engine diagnostics ==",
                [
                    "experiment",
                    "jac stamp/reuse",
                    "reuse",
                    "retries",
                    "timeouts",
                    "conv errors",
                    "tasks ok",
                ],
                engine_rows,
            )
        )

    batch_rows = _batch_rows(manifests)
    if batch_rows:
        lines.append("")
        lines.extend(
            _render_table(
                "== batch solver diagnostics ==",
                [
                    "experiment",
                    "runs",
                    "members",
                    "ok/retried/failed",
                    "ticks",
                    "assemblies",
                    "sparse/dense",
                ],
                batch_rows,
            )
        )

    char_rows = _char_rows(manifests)
    if char_rows:
        lines.append("")
        lines.extend(
            _render_table(
                "== char diagnostics ==",
                [
                    "experiment",
                    "store hit/miss",
                    "serve hit/miss",
                    "computed",
                    "failed",
                ],
                char_rows,
            )
        )

    wlcrit_rows = _wlcrit_rows(manifests)
    if wlcrit_rows:
        lines.append("")
        lines.extend(
            _render_table(
                "== wl_crit diagnostics ==",
                ["experiment", "transients", "steps resumed", "probes latched"],
                wlcrit_rows,
            )
        )
    return "\n".join(lines)
