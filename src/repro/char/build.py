"""Incremental grid builds: spec -> missing entries -> engine batch -> store.

``build_grid`` is the only writer of the characterization store.  Its
contract:

* **Incremental** — only entries whose fingerprint is absent from the
  store are simulated; a second identical build compiles zero tasks,
  and a solver/device change re-simulates exactly the entries whose
  fingerprints moved.
* **Resumable** — the engine checkpoints every completed entry under
  ``<store>/checkpoints/<spec digest>.jsonl``; a build killed mid-way
  replays the finished prefix on the next run and computes only the
  remainder.  Task indices are the entries' stable spec positions, so
  the replay is exact regardless of how the pending set shrank.  The
  checkpoint's ``run_key`` folds in a digest of the pending entries'
  fingerprints, so a checkpoint written under an older solver/device
  configuration is discarded and recomputed instead of being replayed
  into the index under the new fingerprints.
* **Parallel and audited** — the batch fans out over ``jobs`` worker
  processes, and ``verify_fraction`` sample-audits entries under
  :mod:`repro.verify` exactly as any engine workload.

Failures are recorded in the index as structured ``failed`` entries
(visible in ``repro char status``) and re-attempted by the next build.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.char.fingerprint import entry_fingerprint
from repro.char.spec import CharEntry, CharSpec
from repro.char.store import CharStore, spec_digest
from repro.engine.checkpoint import CheckpointMismatch
from repro.engine.jobs import Task, TaskContext, derive_seed
from repro.engine.scheduler import EngineConfig, run_tasks
from repro.telemetry import core as telemetry

__all__ = ["BuildReport", "plan_build", "build_grid", "evaluate_entry"]


@dataclass
class BuildReport:
    """What one ``build_grid`` call did."""

    spec: str
    total: int
    reused: int
    """Entries already present in the store (not simulated)."""

    computed: int
    """Entries simulated by this build (including checkpoint replays
    from a previously killed build of the same pending set)."""

    resumed: int
    """Of ``computed``, how many were replayed from the engine
    checkpoint rather than simulated now."""

    failed: int
    wall_s: float
    failures: list[dict] = field(default_factory=list)

    def summary(self) -> str:
        fresh = self.computed - self.resumed
        lines = [
            f"{self.spec}: {self.total} entries — {self.reused} reused, "
            f"{fresh} simulated, {self.resumed} resumed from checkpoint, "
            f"{self.failed} failed ({self.wall_s:.1f} s)"
        ]
        for failure in self.failures[:5]:
            lines.append(
                f"  failed: {failure['label']} [{failure['error_type']}] "
                f"{failure['error']}"
            )
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more failures")
        return "\n".join(lines)


def plan_build(spec: CharSpec, store: CharStore) -> tuple[list[CharEntry], int]:
    """``(pending entries, reused count)`` for one spec against the store.

    Pending = fingerprint absent or recorded as failed (failures are
    re-attempted; a recorded failure never silently poisons the grid).
    """
    index = store.load_index()
    pending: list[CharEntry] = []
    reused = 0
    for entry in spec.entries():
        record = index.get(entry_fingerprint(entry.point, entry.metric))
        if record is not None and record.get("status") == "ok":
            reused += 1
        else:
            pending.append(entry)
    return pending, reused


def evaluate_entry(payload: dict, ctx: TaskContext) -> float:
    """Engine task function: simulate one ``(point, metric)`` entry.

    Module-level and payload-driven so it pickles into worker
    processes.  The telemetry span gives every characterized point its
    own trace node when a session is active in the worker.
    """
    from repro.char.metrics import evaluate_metric

    tel = telemetry.active()
    span = (
        tel.span("char.point", metric=payload["metric"], design=payload["design"])
        if tel is not None
        else None
    )
    with span if span is not None else _null():
        return evaluate_metric(
            payload["metric"],
            payload["design"],
            payload["vdd"],
            beta=payload["beta"],
            corner=payload["corner"],
        )


class _null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _pending_digest(pending: list[CharEntry], fps: dict[int, str]) -> str:
    """Digest over the pending entries' fingerprints (stable order).

    Part of the checkpoint ``run_key``: it covers the solver and
    per-technology device fingerprints of every entry the batch will
    compute, so a resume never mixes configurations.
    """
    joined = "\n".join(fps[entry.index] for entry in pending)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def build_grid(
    spec: CharSpec,
    store: CharStore | None = None,
    *,
    jobs: int = 1,
    retries: int = 1,
    timeout_s: float | None = None,
    verify_fraction: float = 0.0,
    compile_payload: bool = True,
    trace_dir: str | None = None,
    trace_id: str | None = None,
) -> BuildReport:
    """Bring the store up to date with ``spec``; see the module docstring."""
    store = store or CharStore()
    start = time.perf_counter()
    tel = telemetry.active()

    pending, reused = plan_build(spec, store)
    if tel is not None:
        tel.count("char.store.hits", reused)
        tel.count("char.store.misses", len(pending))

    resumed = failed = 0
    failures: list[dict] = []
    if pending:
        fps = {
            entry.index: entry_fingerprint(entry.point, entry.metric)
            for entry in pending
        }
        tasks = [
            Task(
                index=entry.index,
                fn=evaluate_entry,
                payload={"metric": entry.metric, **entry.point.coords()},
                seed=derive_seed(0, entry.index),
            )
            for entry in pending
        ]
        config = EngineConfig(
            jobs=jobs,
            retries=retries,
            timeout_s=timeout_s,
            checkpoint_path=store.checkpoint_path(spec),
            resume=True,
            run_key=f"char:{spec_digest(spec)}:{_pending_digest(pending, fps)}",
            root_seed=0,
            verify_fraction=verify_fraction,
            trace_dir=trace_dir,
            trace_id=trace_id,
        )
        try:
            report = run_tasks(tasks, config)
        except CheckpointMismatch:
            # The checkpoint was written under different fingerprints
            # (solver/device configuration moved since the killed
            # build): its values belong to the old configuration, so
            # recording them under the new fingerprints would poison
            # the store.  Discard and recompute.
            store.checkpoint_path(spec).unlink(missing_ok=True)
            report = run_tasks(tasks, config)
        resumed = report.resumed_count

        by_index = {entry.index: entry for entry in pending}
        records = []
        for outcome in report.outcomes:
            entry = by_index[outcome.index]
            fp = fps[entry.index]
            if outcome.ok:
                records.append(
                    store.entry_record(
                        entry, fp, value=outcome.value, wall_s=outcome.wall_s
                    )
                )
            else:
                failed += 1
                records.append(
                    store.entry_record(
                        entry, fp, status="failed", wall_s=outcome.wall_s,
                        error_type=outcome.error_type, error=outcome.error,
                    )
                )
                failures.append(
                    {
                        "label": f"{entry.point.label()} {entry.metric}",
                        "error_type": outcome.error_type,
                        "error": outcome.error,
                    }
                )
        store.append(records)
        # The checkpoint's job is done once its outcomes are in the
        # index; leaving it would only shadow future rebuilds of
        # entries that this build recorded as failed.
        store.checkpoint_path(spec).unlink(missing_ok=True)

    if compile_payload:
        store.compile_grid(spec)
    if tel is not None:
        tel.count("char.points_computed", len(pending) - resumed)
        tel.count("char.points_failed", failed)

    return BuildReport(
        spec=spec.name,
        total=len(pending) + reused,
        reused=reused,
        computed=len(pending),
        resumed=resumed,
        failed=failed,
        wall_s=time.perf_counter() - start,
        failures=failures,
    )
