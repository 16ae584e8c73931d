"""Engine-backed array sweeps: many compiled paths, one batch.

A geometry sweep (delay/energy vs row count, scenario matrix) is a
list of independent compile-and-measure tasks — exactly the shape
:mod:`repro.engine` runs well: process fan-out, structured failures,
JSONL checkpoints, kill-and-resume.  The task function is module-level
so it pickles into worker processes, and a task's work is a pure
function of its payload, so a resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.engine import EngineConfig, Task, derive_seed, run_tasks
from repro.sram.array import ArrayGeometry

__all__ = ["SWEEP_DESIGNS", "sweep_points", "run_array_sweep"]

SWEEP_DESIGNS = ("proposed", "cmos", "asym")
"""Designs the sweep can build (two-bitline 6T cells; the 7T cell's
decoupled read port is outside the column compiler's topology)."""

RUN_KEY_SUFFIX = ":rows"
"""Appended to the sweep's run key: tasks are keyed by row count, so a
checkpoint written under another keying raises ``CheckpointMismatch``
instead of replaying one geometry's results under another's rows."""


def sweep_points(
    rows_list,
    columns: int,
    vdd: float,
    design: str = "proposed",
    scenario: str = "read",
) -> list[dict]:
    """The sweep's task payloads, one per geometry (row counts unique)."""
    if design not in SWEEP_DESIGNS:
        raise ValueError(f"unknown sweep design {design!r}; known: {SWEEP_DESIGNS}")
    rows_list = [int(rows) for rows in rows_list]
    if len(set(rows_list)) != len(rows_list):
        raise ValueError(f"duplicate row count in {rows_list}")
    return [
        {
            "design": design,
            "rows": rows,
            "columns": int(columns),
            "vdd": float(vdd),
            "scenario": scenario,
        }
        for rows in rows_list
    ]


def evaluate_sweep_point(payload, ctx=None) -> dict:
    """Compile and measure one geometry (module-level: must pickle).

    Returns the :class:`~repro.sram.compiler.measure.ArrayMeasurement`
    fields as a JSON-serializable dict (``inf``/``nan`` delays use the
    engine checkpoint's JSON dialect).
    """
    from repro.char.designs import build_cell
    from repro.sram.compiler.measure import measure_array
    from repro.sram.compiler.column import compile_array

    cell, assist = build_cell(payload["design"])
    if payload["scenario"] != "read":
        assist = None  # the default assist is a read assist
    geometry = ArrayGeometry(rows=payload["rows"], columns=payload["columns"])
    compiled = compile_array(
        cell, geometry, payload["vdd"],
        scenario=payload["scenario"], assist=assist,
    )
    measurement = measure_array(compiled)
    return {"design": payload["design"], **asdict(measurement)}


def run_array_sweep(
    rows_list,
    columns: int = 4,
    vdd: float = 0.8,
    design: str = "proposed",
    scenario: str = "read",
    engine: EngineConfig = EngineConfig(),
):
    """Run the sweep through the batch engine.

    Each task is keyed by its row count, so ``--resume`` with another
    rows list replays exactly the geometries both lists share.  Returns
    ``(results, report)``: the per-geometry measurement dicts in
    ``rows_list`` order (``None`` where a task failed — the failure
    detail is in the report) and the engine's
    :class:`~repro.engine.scheduler.BatchReport` (checkpoint/resume
    statistics, telemetry counters).
    """
    payloads = sweep_points(rows_list, columns, vdd, design, scenario)
    tasks = [
        Task(
            index=payload["rows"],
            fn=evaluate_sweep_point,
            payload=payload,
            seed=derive_seed(engine.root_seed, payload["rows"]),
        )
        for payload in payloads
    ]
    report = run_tasks(tasks, replace(engine, run_key=engine.run_key + RUN_KEY_SUFFIX))
    return report.values(), report
