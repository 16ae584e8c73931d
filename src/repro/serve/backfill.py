"""Coalescing backfill: cache misses batched into engine build jobs.

Misses arrive one point at a time (``submit``); the queue coalesces
everything that lands within one window into a single *batch*, compiles
the batch into ad-hoc :class:`~repro.char.spec.CharSpec` grids (one per
``(corner, beta)`` group — designs x V_DDs x metrics union within the
group), and runs them through :func:`repro.char.build.build_grid` on a
single-thread executor.  When the builds land, every waiting future is
resolved from the store index and the daemon reloads its grids.

Durability falls out of the char layer, not from anything here:

* every completed point is flushed to the build's engine checkpoint
  the moment it finishes, so a daemon killed mid-backfill loses
  nothing — re-submitting the same miss set after a restart coalesces
  into the same spec (sorted unions are deterministic), hits the same
  checkpoint, and replays the completed prefix instead of recomputing;
* completed batches are ordinary store entries: they stay warm across
  restarts and are served as exact points by the registry.

Duplicate in-flight misses share one future (true coalescing: N
clients asking for the same cold point cost one simulation).
Admission control is a bounded pending-point count — past
``depth``, :class:`BackfillOverloaded` tells the daemon to reject with
a structured overload error instead of queueing unboundedly.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.char.build import build_grid
from repro.char.fingerprint import entry_fingerprint
from repro.char.spec import CharPoint, CharSpec
from repro.char.store import CharStore

__all__ = ["MissKey", "BackfillOverloaded", "BackfillFailed", "BackfillQueue"]

BACKFILL_SPEC_NAME = "backfill"


class BackfillOverloaded(RuntimeError):
    """The pending-point budget is exhausted; admission control says no."""


class BackfillFailed(RuntimeError):
    """The point was simulated and failed; the store records the error."""


@dataclass(frozen=True)
class MissKey:
    """One missed point: the unit of backfill coalescing."""

    design: str
    corner: str
    beta: float | None
    vdd: float
    metric: str

    def point(self) -> CharPoint:
        return CharPoint(
            design=self.design, corner=self.corner,
            vdd=float(self.vdd), beta=self.beta,
        )


def batch_specs(keys: list[MissKey]) -> list[CharSpec]:
    """Compile one batch of misses into deterministic ad-hoc specs.

    Grouped by ``(corner, beta)``; within a group the spec covers the
    sorted unions of designs, V_DDs, and metrics.  The cross-product
    may include a few points nobody asked for — they are computed once
    and enrich the store, which is cheaper than one engine batch per
    point.  Sorted unions make the spec (and therefore its digest,
    checkpoint path, and resume key) a pure function of the miss set.
    """
    groups: dict[tuple, list[MissKey]] = {}
    for key in keys:
        groups.setdefault((key.corner, key.beta), []).append(key)
    specs = []
    for (corner, beta), members in sorted(
        groups.items(), key=lambda item: (item[0][0], repr(item[0][1]))
    ):
        specs.append(
            CharSpec(
                name=BACKFILL_SPEC_NAME,
                designs=tuple(sorted({m.design for m in members})),
                vdds=tuple(sorted({float(m.vdd) for m in members})),
                metrics=tuple(sorted({m.metric for m in members})),
                corners=(corner,),
                betas=(beta,),
            )
        )
    return specs


class BackfillQueue:
    """The daemon's miss queue; see the module docstring."""

    def __init__(
        self,
        store: CharStore,
        *,
        depth: int = 256,
        coalesce_s: float = 0.05,
        jobs: int = 1,
        verify_fraction: float = 0.0,
        trace_dir: str | None = None,
        trace_id: str | None = None,
    ):
        self.store = store
        self.depth = depth
        self.coalesce_s = coalesce_s
        self.jobs = jobs
        self.verify_fraction = verify_fraction
        self.trace_dir = trace_dir
        self.trace_id = trace_id
        self._pending: dict[MissKey, asyncio.Future] = {}
        self._in_flight: dict[MissKey, asyncio.Future] = {}
        self._kick = asyncio.Event()
        self._closed = False
        self._worker: asyncio.Task | None = None
        # Single thread: engine builds already parallelize internally
        # via ``jobs``, and one build thread keeps the global telemetry
        # session handoff in execute_task race-free.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-backfill"
        )
        self.batches_completed = 0
        self.points_completed = 0
        self.last_report: list[dict] | None = None

    # -- introspection -----------------------------------------------------

    @property
    def pending_points(self) -> int:
        return len(self._pending) + len(self._in_flight)

    def status(self) -> dict:
        return {
            "pending": len(self._pending),
            "in_flight": len(self._in_flight),
            "depth": self.depth,
            "batches_completed": self.batches_completed,
            "points_completed": self.points_completed,
            "last_reports": self.last_report,
        }

    # -- submission --------------------------------------------------------

    def start(self) -> None:
        self._worker = asyncio.get_running_loop().create_task(self._run())

    def submit(self, key: MissKey) -> asyncio.Future:
        """Enqueue one miss; returns the (possibly shared) future.

        The future resolves to the stored float value once the batch
        lands, or raises :class:`BackfillFailed`.  Raises
        :class:`BackfillOverloaded` / :class:`RuntimeError` immediately
        when the queue is full or draining.
        """
        if self._closed:
            raise RuntimeError("backfill queue is draining")
        existing = self._pending.get(key) or self._in_flight.get(key)
        if existing is not None:
            return existing
        if self.pending_points >= self.depth:
            raise BackfillOverloaded(
                f"backfill queue is full ({self.pending_points} points "
                f"pending, depth {self.depth})"
            )
        future = asyncio.get_running_loop().create_future()
        self._pending[key] = future
        self._kick.set()
        return future

    # -- the batch loop ----------------------------------------------------

    async def _run(self) -> None:
        while True:
            await self._kick.wait()
            self._kick.clear()
            if not self._pending:
                if self._closed:
                    return
                continue
            await asyncio.sleep(self.coalesce_s)  # the coalescing window
            batch = dict(self._pending)
            self._pending.clear()
            self._in_flight.update(batch)
            try:
                await self._build_batch(batch)
            finally:
                for key in batch:
                    self._in_flight.pop(key, None)
            if self._closed and not self._pending:
                return

    async def _build_batch(self, batch: dict[MissKey, asyncio.Future]) -> None:
        loop = asyncio.get_running_loop()
        specs = batch_specs(list(batch))
        try:
            reports = await loop.run_in_executor(
                self._executor, self._build_specs, specs
            )
        except Exception as exc:  # noqa: BLE001 — resolve, never crash the loop
            for future in batch.values():
                if not future.done():
                    future.set_exception(
                        BackfillFailed(f"backfill build crashed: {exc}")
                    )
            return
        self.batches_completed += 1
        self.points_completed += sum(r["computed"] for r in reports)
        self.last_report = reports
        self._resolve(batch)

    def _build_specs(self, specs: list[CharSpec]) -> list[dict]:
        """Executor-thread body: run every spec's build, report back."""
        reports = []
        for spec in specs:
            report = build_grid(
                spec,
                self.store,
                jobs=self.jobs,
                verify_fraction=self.verify_fraction,
                trace_dir=self.trace_dir,
                trace_id=self.trace_id,
            )
            reports.append(
                {
                    "spec": spec.to_json(),
                    "total": report.total,
                    "reused": report.reused,
                    "computed": report.computed,
                    "resumed": report.resumed,
                    "failed": report.failed,
                    "wall_s": report.wall_s,
                }
            )
        return reports

    def _resolve(self, batch: dict[MissKey, asyncio.Future]) -> None:
        """Settle every waiting future from the (just-updated) index."""
        self.store.refresh()
        for key, future in batch.items():
            if future.done():  # a timed-out request abandoned it
                continue
            value = self.store.value(key.point(), key.metric)
            if value is not None:
                future.set_result(value)
                continue
            record = self.store.get(entry_fingerprint(key.point(), key.metric))
            if record is not None:
                future.set_exception(
                    BackfillFailed(
                        f"{key.metric} at {key.point().label()} failed: "
                        f"[{record.get('error_type')}] {record.get('error')}"
                    )
                )
            else:
                future.set_exception(
                    BackfillFailed(
                        f"{key.metric} at {key.point().label()} did not land "
                        "in the store (point not realizable for this design?)"
                    )
                )

    # -- shutdown ----------------------------------------------------------

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Stop accepting, wait for in-flight work, shut the executor.

        Returns ``True`` when everything drained inside the grace
        budget.  On ``False`` the in-flight build keeps running in its
        (daemon) thread until process exit — its engine checkpoint has
        every completed point either way, so nothing is lost.
        """
        self._closed = True
        self._kick.set()
        drained = True
        if self._worker is not None:
            try:
                await asyncio.wait_for(asyncio.shield(self._worker), grace_s)
            except asyncio.TimeoutError:
                drained = False
        for future in {**self._pending, **self._in_flight}.values():
            if not future.done():
                future.set_exception(RuntimeError("daemon is shutting down"))
        self._executor.shutdown(wait=drained, cancel_futures=True)
        return drained
