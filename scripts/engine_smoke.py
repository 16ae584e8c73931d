"""CI smoke test for the batch engine: parallel MC, forced retry, resume.

Exercises the engine behaviours CI must never regress, end to end and
in minutes, not hours:

1. a small *real* Monte-Carlo study (DRNM samples, solved in stacked
   chunks as fig09/fig10 solve them) on 2 workers, bit-identical to
   the serial run;
2. forced ConvergenceError retries with solver-knob escalation (a task
   function that diverges on its first attempt);
3. simulated kill-and-resume cycles: a prefix of a task batch is
   checkpointed, the resumed run computes only the remainder, and the
   combined values are bit-identical to an uninterrupted serial run;
   and a checkpointed 3-sample chunked study resumed as 4 samples
   equals an uninterrupted 4-sample study;
4. a traced rerun of both batches: the merged run-level trace must
   contain every task's span tree (one per Monte-Carlo chunk), the
   ConvergenceError forensics of the forced retries, and task spans
   covering most of the scheduler wall; the trace and the run manifest
   (with its Prometheus text) land in ``SMOKE_ARTIFACTS`` (when set)
   for CI upload.

Run with ``PYTHONPATH=src python scripts/engine_smoke.py``; exits
non-zero on the first violated expectation.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from pathlib import Path

from repro.circuit.dcop import ConvergenceError
from repro.engine import (
    EngineConfig,
    McMetricSpec,
    MonteCarloBatch,
    Task,
    derive_seed,
    run_tasks,
)
from repro.engine.mc import chunk_size

SAMPLES = 4
SEED = 7


def flaky_value(payload, ctx) -> float:
    """Diverges on the first attempt; succeeds once escalated."""
    if ctx.attempt == 0:
        raise ConvergenceError(f"task {ctx.index}: first attempt diverges")
    return float(ctx.rng().standard_normal())


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="engine_smoke_") as tmp:
        tmp_path = Path(tmp)

        print("1. parallel Monte-Carlo (DRNM, 2 workers, stacked chunks)")
        batch = MonteCarloBatch(
            McMetricSpec(metric="drnm", beta=0.6, vdd=0.8, metric_name="DRNM")
        )
        mc = batch.run(SAMPLES, seed=SEED, engine=EngineConfig(jobs=2))
        check(mc.report.ok_count == SAMPLES, f"{SAMPLES}/{SAMPLES} samples computed")
        check(mc.failure_count == 0, "no diverged samples")

        serial = batch.run(SAMPLES, seed=SEED)
        check(
            list(serial.samples) == list(mc.samples),
            "jobs=2 bit-identical to jobs=1",
        )

        print("2. forced ConvergenceError retry with escalation")
        tasks = [
            Task(index=k, fn=flaky_value, payload=None, seed=derive_seed(SEED, k))
            for k in range(8)
        ]
        report = run_tasks(tasks, EngineConfig(jobs=2, retries=2))
        check(report.ok_count == 8, "all tasks recovered on retry")
        check(report.retry_count == 8, "each task used exactly one retry")

        no_retry = run_tasks(tasks, EngineConfig(jobs=2, retries=0))
        check(
            no_retry.failed_count == 8
            and all(f.error_type == "ConvergenceError" for f in no_retry.failures()),
            "without retries the failures are structured, not fatal",
        )

        print("3. kill-and-resume cycle")
        path = tmp_path / "smoke.jsonl"
        reference = run_tasks(tasks, EngineConfig(retries=1))
        run_tasks(
            tasks[:5],
            EngineConfig(retries=1, checkpoint_path=path, run_key="smoke", root_seed=SEED),
        )
        resumed = run_tasks(
            tasks,
            EngineConfig(
                jobs=2,
                retries=1,
                checkpoint_path=path,
                run_key="smoke",
                root_seed=SEED,
                resume=True,
            ),
        )
        check(resumed.resumed_count == 5, "5/8 outcomes replayed from the checkpoint")
        check(
            resumed.values() == reference.values(),
            "resumed run bit-identical to an uninterrupted run",
        )

        study_path = tmp_path / "study.jsonl"
        study = dict(checkpoint_path=study_path, run_key="smoke-study", root_seed=SEED)
        batch.run(3, seed=SEED, engine=EngineConfig(**study), batch_size=2)
        extended = batch.run(
            4, seed=SEED, engine=EngineConfig(resume=True, **study), batch_size=2
        )
        whole = batch.run(4, seed=SEED, batch_size=2)
        check(
            extended.report.resumed_count == 1,
            "chunk [0, 2) replayed; the partial chunk [2, 3) recomputed as [2, 4)",
        )
        check(
            extended.samples.tobytes() == whole.samples.tobytes(),
            "3-sample chunked study resumed as 4 equals an uninterrupted run",
        )

        print("4. traced batches merge into one run-level trace + manifest")
        import json
        import time

        from repro.obs.trace import load_trace, summarize_trace
        from repro.telemetry import core as telemetry
        from repro.telemetry.manifest import build_manifest, write_manifest

        artifacts = Path(os.environ.get("SMOKE_ARTIFACTS", tmp_path / "artifacts"))
        artifacts.mkdir(parents=True, exist_ok=True)
        trace_dir = artifacts / "trace"
        trace_id = "5m0ke5m0ke5m0ke5"
        start = time.perf_counter()
        with telemetry.enabled(
            log_level="error", trace=telemetry.TraceContext(trace_id)
        ) as session:
            batch.run(
                SAMPLES,
                seed=SEED,
                engine=EngineConfig(
                    jobs=2,
                    trace_dir=trace_dir,
                    trace_id=trace_id,
                    run_key="smoke-mc",
                ),
            )
            run_tasks(
                tasks,
                EngineConfig(
                    jobs=2,
                    retries=1,
                    trace_dir=trace_dir,
                    trace_id=trace_id,
                    run_key="smoke-flaky",
                ),
            )
        manifest_path = write_manifest(
            build_manifest(
                "engine-smoke", "engine smoke", None, session,
                time.perf_counter() - start,
            ),
            artifacts / "engine_manifest.json",
        )
        summary = summarize_trace(load_trace(trace_dir))
        chunks = math.ceil(SAMPLES / chunk_size(SAMPLES, 2))
        check(
            summary["tasks"] == chunks + 8,
            f"every task left a span ({summary['tasks']}/{chunks + 8}, "
            f"{chunks} Monte-Carlo chunks)",
        )
        check(
            summary["attempts"] == chunks + 16,
            "retried tasks left one span per attempt",
        )
        check(
            summary["convergence_events"] >= 8,
            f"retry forensics recorded ({summary['convergence_events']} events)",
        )
        check(
            summary["task_coverage"] > 0.5,
            f"task spans cover the scheduler wall "
            f"({100.0 * summary['task_coverage']:.1f} %)",
        )
        manifest = json.loads(manifest_path.read_text())
        check(
            manifest["trace_id"] == trace_id
            and manifest["telemetry"]["counters"]["engine.tasks_total"]
            == chunks + 8,
            "manifest joins the trace and counts every task",
        )
        check(
            manifest_path.with_suffix(".prom").read_text().startswith("#"),
            "Prometheus text written beside the manifest",
        )

    print("engine smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
