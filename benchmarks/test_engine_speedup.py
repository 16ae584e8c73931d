"""Guard: the batch engine's 4-worker speedup on a fixed 16-sample workload.

Times the same task batch serially (``jobs=1``) and on four workers
(``jobs=4``) and asserts the parallel run is at least 2x faster.  Two
workload modes keep the measurement honest across hosts:

* ``montecarlo`` (>= 4 usable cores, e.g. CI): 16 real DRNM Monte-Carlo
  samples as four stacked chunks of four (``chunk_tasks(..., batch_size=4)``,
  the layout fig09/fig10 run), so the serial and the 4-worker runs
  solve exactly the same chunks.  A warm-up pass at ``jobs=1`` builds
  every device table in this process first; the forked workers inherit
  them, so both timed runs measure solving, not table builds;
* ``scheduler-overhead`` (fewer cores, e.g. a 2-vCPU container): tasks
  that sleep a fixed time and do no solver work.  CPU-bound work cannot
  speed up on too few cores, so this mode only checks that the
  scheduler overlaps task wall time and adds little overhead.  The
  mode is recorded in the emitted JSON, so such a result is never
  mistaken for a parallelism measurement.

Emits ``BENCH_engine.json`` at the repo root with both wall times, the
speedup, the mode, and the visible core count.

Run with ``PYTHONPATH=src python -m pytest -q -s
benchmarks/test_engine_speedup.py`` (no pytest-benchmark needed).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import EngineConfig, McMetricSpec, MonteCarloBatch, Task, derive_seed, run_tasks

TASK_COUNT = 16
CHUNK = 4
JOBS = 4
MIN_SPEEDUP = 2.0
SLEEP_PER_TASK_S = 0.25
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def sleep_task(payload, ctx) -> float:
    """Fixed-duration stand-in task (module-level: must pickle)."""
    time.sleep(float(payload))
    return float(ctx.index)


def montecarlo_tasks() -> list[Task]:
    spec = McMetricSpec(metric="drnm", beta=0.6, vdd=0.8, metric_name="DRNM")
    return MonteCarloBatch(spec).chunk_tasks(
        TASK_COUNT, seed=42, config=EngineConfig(), batch_size=CHUNK
    )


def sleep_tasks() -> list[Task]:
    return [
        Task(index=k, fn=sleep_task, payload=SLEEP_PER_TASK_S, seed=derive_seed(42, k))
        for k in range(TASK_COUNT)
    ]


def timed_run(tasks: list[Task], jobs: int) -> tuple[float, list]:
    config = EngineConfig(jobs=jobs)
    start = time.perf_counter()
    report = run_tasks(tasks, config)
    wall = time.perf_counter() - start
    assert report.failed_count == 0, report.failures()
    return wall, report.values()


def test_four_worker_speedup():
    cores = usable_cores()
    mode = "montecarlo" if cores >= JOBS else "scheduler-overhead"
    if mode == "montecarlo":
        tasks = montecarlo_tasks()
        # Warm pass in this process: the forked workers inherit its
        # device tables, so both timed runs measure solving, not setup.
        run_tasks(tasks, EngineConfig(jobs=1))
    else:
        tasks = sleep_tasks()

    serial_wall, serial_values = timed_run(tasks, 1)
    parallel_wall, parallel_values = timed_run(tasks, JOBS)

    assert parallel_values == serial_values, "parallelism changed the results"
    speedup = serial_wall / parallel_wall
    print(
        f"\n[{mode}, {cores} cores] serial {serial_wall:.2f} s, "
        f"jobs={JOBS} {parallel_wall:.2f} s -> {speedup:.2f}x"
    )

    BENCH_PATH.write_text(
        json.dumps(
            {
                "schema": "repro.bench.engine/v1",
                "created_unix": time.time(),
                "mode": mode,
                "usable_cores": cores,
                "task_count": len(tasks),
                "jobs": JOBS,
                "serial_wall_s": serial_wall,
                "parallel_wall_s": parallel_wall,
                "speedup": speedup,
                "min_speedup": MIN_SPEEDUP,
            },
            indent=2,
        )
    )
    assert speedup >= MIN_SPEEDUP


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
