"""Engine-backed point evaluation: chunks of metric points, each one
stacked batch.

A :class:`~repro.char.metrics.MetricPoint` is plain data, so the
module-level chunk task :func:`evaluate_mc_chunk` can evaluate a tuple
of them in any worker process: one stacked Newton batch
(:mod:`repro.circuit.batch`) over their
:func:`~repro.char.metrics.metric_gen` generators, with the scalar
:func:`evaluate_mc_point` as the retry ladder and the audit reference
of every member.  :func:`run_point_chunks` runs chunks of a point list
through the engine and expands them into per-point outcomes; the
experiments' :func:`repro.char.query.evaluate_points` and the
Monte-Carlo :class:`MonteCarloBatch` both run on it.

A Monte-Carlo sample is the point :meth:`McMetricSpec.point` makes of
its per-transistor thickness scales.  The scales derive from
``(root_seed, sample_index)`` via the engine's seed derivation, and
each chunk task is keyed by the range of samples it holds, so a study
is reproducible at any worker count and chunk size, resumable, and
extendable (a 200-sample run reuses the chunks of a 64-sample run of
the same seed that hold the same samples).  A checkpoint whose chunks
hold other ranges (another chunk size, or one written before
:func:`chunk_size` balanced the chunks) is valid but replays nothing:
its samples are recomputed.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro.char.metrics import MetricPoint, metric_gen
from repro.circuit.dcop import SolverOptions, drive
from repro.circuit.transient import TransientOptions
from repro.devices.variation import OxideVariation
from repro.engine.jobs import Task, TaskContext, TaskOutcome, derive_seed, task_rng
from repro.engine.scheduler import BatchReport, EngineConfig, run_tasks

__all__ = [
    "MAX_CHUNK",
    "McMetricSpec",
    "MonteCarloBatch",
    "chunk_index",
    "chunk_ranges",
    "chunk_size",
    "escalated_transient_options",
    "evaluate_mc_chunk",
    "evaluate_mc_point",
    "evaluate_mc_sample",
    "point_chunk_tasks",
    "run_point_chunks",
    "sample_scales",
]

MAX_CHUNK = 16
"""Largest derived chunk: on a 2-vCPU host chunks of 16 samples took
about a sixth of the per-sample wall time, and chunks of 32 gained
nothing over 16."""

RUN_KEY_SUFFIX = ":chunks=range"
"""Appended to the study's run key, so a checkpoint written under
another task layout raises ``CheckpointMismatch`` instead of being
misread."""


def chunk_size(sample_count: int, jobs: int) -> int:
    """The derived chunk size: ``ceil(samples / count)`` for a chunk
    count of ``jobs * ceil(samples / (jobs * MAX_CHUNK))``.

    The count is the fewest chunks of at most :data:`MAX_CHUNK` samples,
    rounded up to a multiple of ``jobs``, so every worker gets as many
    chunks as every other and the chunks are as even as the sample
    count allows: 40 samples run as 4 x 10 at two jobs and as 14, 14
    and 12 at one, where ``min(MAX_CHUNK, ceil(samples / jobs))`` ran
    16, 16 and 8 at both and left one of two workers idle through the
    last chunk.
    """
    count = jobs * math.ceil(sample_count / (jobs * MAX_CHUNK))
    return math.ceil(sample_count / count)


def chunk_index(lo: int, hi: int) -> int:
    """The task index of the chunk holding samples ``[lo, hi)``.

    The Cantor pairing of ``(lo, hi)``: one integer per member range,
    so a checkpointed outcome is replayed only for a chunk with the
    same members, whatever the chunk size or sample count.
    """
    return (lo + hi) * (lo + hi + 1) // 2 + hi


def chunk_ranges(count: int, size: int, offset: int = 0) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges of at most ``size`` items covering
    ``offset .. offset + count``, in order."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [
        (offset + lo, offset + min(count, lo + size)) for lo in range(0, count, size)
    ]


def sample_scales(
    variation: OxideVariation, root_seed: int, index: int, transistor_count: int
) -> tuple[float, ...]:
    """The per-transistor thickness scales of one Monte-Carlo sample.

    A pure function of ``(root_seed, index)`` — the engine's
    determinism and resume guarantees for Monte-Carlo rest on exactly
    this property.
    """
    rng = task_rng(root_seed, index)
    return tuple(variation.sample_per_transistor(rng, 1, transistor_count)[0])


def escalated_transient_options(attempt: int) -> TransientOptions | None:
    """Solver knobs for retry attempt ``attempt`` (0 = experiment defaults).

    Escalation follows the standard SPICE playbook: first give Newton
    more room (iterations, backtracks, gentler step rejection), then
    additionally raise the gmin floor to shunt the near-singular
    operating points that defeat attempt 1.
    """
    if attempt <= 0:
        return None
    if attempt == 1:
        solver = SolverOptions(max_iterations=160, line_search_backtracks=8)
        return TransientOptions(solver=solver, shrink=0.25)
    solver = SolverOptions(
        max_iterations=240, line_search_backtracks=10, gmin=1e-11
    )
    return TransientOptions(solver=solver, shrink=0.2, max_voltage_step=0.04)


@dataclass(frozen=True)
class McMetricSpec:
    """Plain-data description of one Monte-Carlo study of the inward-pTFET cell.

    ``metric`` is ``"wlcrit"`` (critical wordline pulse within
    ``wlcrit_upper_bound``; ``assist`` names an entry of
    ``WRITE_ASSISTS``) or ``"drnm"`` (dynamic read noise margin;
    ``assist`` names an entry of ``READ_ASSISTS``).  Everything here is
    picklable, so a spec travels to worker processes by value.
    """

    metric: str
    beta: float
    vdd: float = 0.8
    assist: str | None = None
    wlcrit_upper_bound: float = 4.0e-9
    metric_name: str = "metric"
    transistor_count: int = 6
    variation: OxideVariation = field(default_factory=OxideVariation)

    def __post_init__(self) -> None:
        if self.metric not in ("wlcrit", "drnm"):
            raise ValueError(
                f"metric must be 'wlcrit' or 'drnm', got {self.metric!r}"
            )

    def point(self, scales) -> MetricPoint:
        """The sample with these per-transistor thickness scales."""
        from repro.sram import READ_ASSISTS, WRITE_ASSISTS

        if self.metric == "wlcrit":
            return MetricPoint(
                "wl_crit", "inward_p", self.vdd, self.beta,
                assist=WRITE_ASSISTS[self.assist] if self.assist else None,
                wl_crit_bound=self.wlcrit_upper_bound,
                scales=scales,
            )
        return MetricPoint(
            "drnm", "inward_p", self.vdd, self.beta,
            assist=READ_ASSISTS[self.assist] if self.assist else None,
            scales=scales,
        )


def evaluate_mc_point(point: MetricPoint, ctx: TaskContext) -> float:
    """Task function: one point on the scalar path.

    Drives :func:`~repro.char.metrics.metric_gen` with
    :func:`escalated_transient_options` for ``ctx.attempt``: the retry
    ladder and the audit reference of every chunk member.  The point's
    transients are not ``transient`` telemetry spans of their own;
    their counters are recorded.
    """
    return drive(metric_gen(point, escalated_transient_options(ctx.attempt)))


def evaluate_mc_sample(payload, ctx: TaskContext) -> float:
    """Task function: one Monte-Carlo sample on the scalar path.

    ``payload`` is ``(spec, scales)``; the sample is
    ``spec.point(scales)`` through :func:`evaluate_mc_point`.
    """
    spec, scales = payload
    return evaluate_mc_point(spec.point(scales), ctx)


def evaluate_mc_chunk(payload, ctx: TaskContext) -> list[dict]:
    """Task function: evaluate a whole chunk of points as one stacked batch.

    ``payload`` is ``(entries, retries, verify_fraction,
    verify_options)`` with ``entries`` a tuple of ``(index, seed,
    point)`` triples, one per batch member.  Attempt 0 solves every
    member's :func:`~repro.char.metrics.metric_gen` together through
    :mod:`repro.circuit.batch`; a member that fails with a retryable
    solver error splits off to the scalar :func:`evaluate_mc_point`
    path with the usual escalation ladder (``engine.convergence_errors``
    / ``engine.retries`` counter semantics match
    :func:`~repro.engine.worker.execute_task`).

    Bit-level trust: the same deterministic per-seed draw the engine
    uses for task auditing (:func:`~repro.engine.worker.verify_selected`)
    selects members whose batched value is re-derived on the scalar
    path under a :mod:`repro.verify` session; any disagreement is a
    solver bug and fails the member with a ``VerificationError``.

    Returns one JSON-able record per member, checkpoint-safe and
    field-compatible with :meth:`~repro.engine.jobs.TaskOutcome`.
    """
    from repro import telemetry, verify
    from repro.circuit.batch import run_generators
    from repro.engine.worker import RETRYABLE_ERRORS, verify_selected
    from repro.verify.core import VerificationError

    entries, retries, verify_fraction, verify_options = payload
    tel = telemetry.active()

    outcomes = run_generators([metric_gen(point) for _, _, point in entries])

    records = []
    for (index, seed, point), outcome in zip(entries, outcomes):
        attempt = 0
        value = outcome.value if outcome.status == "ok" else None
        error = outcome.error if outcome.status != "ok" else None

        # Scalar fallback ladder for members the batch could not solve.
        while error is not None and isinstance(error, RETRYABLE_ERRORS):
            if tel is not None:
                tel.count("engine.convergence_errors")
            if attempt >= retries:
                break
            attempt += 1
            if tel is not None:
                tel.count("engine.retries")
            if tel is not None:
                tel.count("batch.member_retries")
            try:
                value = evaluate_mc_point(
                    point, TaskContext(index=index, seed=seed, attempt=attempt)
                )
                error = None
            except RETRYABLE_ERRORS as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 — recorded, chunk survives
                error = exc
                break

        # Audit a deterministic member subset: re-derive the batched
        # value on the scalar path under full verification.  Only
        # attempt-0 successes qualify — a retried member's value came
        # from the scalar path already.
        if error is None and attempt == 0 and verify_selected(seed, verify_fraction):
            if tel is not None:
                tel.count("verify.audited_tasks")
            session = None
            try:
                with verify.enabled(verify_options) as session:
                    check = evaluate_mc_point(
                        point, TaskContext(index=index, seed=seed, attempt=0)
                    )
                both_nan = math.isnan(check) and math.isnan(value)
                if check != value and not both_nan:
                    raise VerificationError(
                        "batch",
                        f"batched point {index} disagrees with the scalar path",
                        {"batched": value, "scalar": check},
                    )
            except Exception as exc:  # noqa: BLE001 — a real solver bug
                error = exc
                value = None
            if tel is not None and session is not None:
                for name, n in session.audits.items():
                    tel.count(f"verify.audit.{name}", n)

        if error is None:
            records.append(
                {
                    "index": index,
                    "status": "ok",
                    "value": value,
                    "attempts": attempt + 1,
                }
            )
        else:
            if tel is not None:
                tel.count("batch.member_failures")
            records.append(
                {
                    "index": index,
                    "status": "failed",
                    "value": None,
                    "attempts": attempt + 1,
                    "error_type": type(error).__name__,
                    "error": "".join(
                        traceback.format_exception_only(error)
                    ).strip(),
                }
            )
    return records


def point_chunk_tasks(
    points, ranges, seed: int, config: EngineConfig
) -> list[Task]:
    """One :func:`evaluate_mc_chunk` task per ``[lo, hi)`` range of ``points``.

    Member ``k`` carries the seed ``derive_seed(seed, k)``, so its work,
    and the deterministic audit selection, do not depend on the chunk
    layout.  A chunk's task index is :func:`chunk_index` of its range.
    """
    tasks = []
    for lo, hi in ranges:
        entries = tuple((k, derive_seed(seed, k), points[k]) for k in range(lo, hi))
        index = chunk_index(lo, hi)
        tasks.append(
            Task(
                index=index,
                fn=evaluate_mc_chunk,
                payload=(
                    entries,
                    config.retries,
                    config.verify_fraction,
                    config.verify_options,
                ),
                seed=derive_seed(seed, index),
            )
        )
    return tasks


def run_point_chunks(
    tasks: list[Task], count: int, config: EngineConfig
) -> BatchReport:
    """Run :func:`point_chunk_tasks` and expand them into a per-point report.

    Retries, timeouts and verify audits keep their per-*point*
    semantics: retried members split to the scalar path inside the
    chunk, and ``timeout_s`` scales by the largest chunk.  The report
    holds one outcome per point ``0 .. count - 1`` in index order;
    ``report.resumed_count`` and the ``engine.tasks_*`` session
    counters count *chunks*.  A chunk that died as a whole (timeout,
    worker loss, a bug) records each of its points as failed.
    """
    largest = max(len(task.payload[0]) for task in tasks)
    chunk_config = replace(
        config,
        retries=0,
        verify_fraction=0.0,
        verify_options=None,
        run_key=config.run_key + RUN_KEY_SUFFIX,
        timeout_s=(
            config.timeout_s * largest if config.timeout_s is not None else None
        ),
    )
    chunk_report = run_tasks(tasks, chunk_config)
    outcomes: list[TaskOutcome] = []
    for task, chunk in zip(tasks, chunk_report.outcomes):
        if chunk.ok:
            share = chunk.wall_s / max(1, len(chunk.value))
            for rec in chunk.value:
                outcomes.append(
                    TaskOutcome(
                        index=int(rec["index"]),
                        status=str(rec["status"]),
                        value=rec.get("value"),
                        attempts=int(rec.get("attempts", 1)),
                        wall_s=share,
                        error_type=rec.get("error_type"),
                        error=rec.get("error"),
                    )
                )
        else:
            members = [entry[0] for entry in task.payload[0]]
            share = chunk.wall_s / len(members)
            for k in members:
                outcomes.append(
                    TaskOutcome(
                        index=k,
                        status="failed",
                        attempts=chunk.attempts,
                        wall_s=share,
                        error_type=chunk.error_type,
                        error=chunk.error,
                    )
                )
    outcomes.sort(key=lambda o: o.index)
    if [o.index for o in outcomes] != list(range(count)):
        raise RuntimeError(
            f"chunk outcomes of run {config.run_key!r} do not cover points "
            f"0..{count - 1} exactly once"
        )
    return BatchReport(
        outcomes=outcomes,
        jobs=chunk_report.jobs,
        wall_s=chunk_report.wall_s,
        resumed_count=chunk_report.resumed_count,
        counters=chunk_report.counters,
    )


@dataclass(frozen=True)
class MonteCarloBatch:
    """Monte-Carlo study of one :class:`McMetricSpec` on the batch engine."""

    spec: McMetricSpec

    def chunk_tasks(
        self, sample_count: int, seed: int, config: EngineConfig, batch_size: int
    ) -> list[Task]:
        """The study's task list: one chunk task per ``batch_size`` samples.

        Sample ``k`` is ``spec.point`` of the scales :func:`sample_scales`
        draws for ``(seed, k)``; see :func:`point_chunk_tasks`.
        """
        if sample_count <= 0:
            raise ValueError("sample_count must be positive")
        points = [
            self.spec.point(
                sample_scales(self.spec.variation, seed, k, self.spec.transistor_count)
            )
            for k in range(sample_count)
        ]
        return point_chunk_tasks(
            points, chunk_ranges(sample_count, batch_size), seed, config
        )

    def run(
        self,
        sample_count: int,
        seed: int = 2011,
        engine: EngineConfig | None = None,
        batch_size: int | None = None,
    ):
        """Evaluate ``sample_count`` samples; returns a
        :class:`~repro.analysis.montecarlo.MonteCarloResult` whose
        ``report`` attribute carries the per-sample :class:`BatchReport`
        of :func:`run_point_chunks`.

        The samples run in chunks, each solved as one stacked Newton
        batch (:mod:`repro.circuit.batch`); every value equals the
        scalar :func:`evaluate_mc_sample` to the last bit.  The chunk
        size is :func:`chunk_size` of the sample count and the engine's
        ``jobs``; ``batch_size`` fixes it instead.

        Engine-level task failures (retry exhaustion, timeout, a died
        worker) enter the sample array as ``nan`` — distinguishable
        from the metric's own ``inf`` write failures, but equally
        counted by ``MonteCarloResult.failure_count``.
        """
        from repro.analysis.montecarlo import MonteCarloResult

        config = engine or EngineConfig()
        if batch_size is None:
            batch_size = chunk_size(sample_count, config.jobs)
        tasks = self.chunk_tasks(sample_count, seed, config, batch_size)
        report = run_point_chunks(tasks, sample_count, config)
        values = np.array(
            [v if v is not None else math.nan for v in report.values()], dtype=float
        )
        return MonteCarloResult(self.spec.metric_name, values, report=report)
