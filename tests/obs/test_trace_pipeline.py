"""End-to-end tests for the cross-process trace pipeline.

The properties pinned here are the observability contract: every task
of a traced batch leaves a span tree in the merged trace, span ids are
a pure function of the trace id and logical position (so any
``--jobs J`` merges to the same tree modulo timestamps), failures leave
forensics, and the merge tolerates torn sink tails from killed
processes.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import EngineConfig, Task, derive_seed, run_tasks
from repro.obs.sink import SpanSink
from repro.obs.trace import (
    format_convergence,
    load_trace,
    merge_trace,
    summarize_trace,
)
from repro.telemetry import core as telemetry
from repro.telemetry.core import (
    TraceContext,
    attempt_span_id,
    batch_span_id,
    task_span_id,
)

from obs_helpers import always_diverges, divider_solve, flaky_once, seeded_value

TRACE_ID = "feedfacefeedface"
N_TASKS = 6


def make_tasks(fn=seeded_value, n=N_TASKS):
    return [
        Task(index=k, fn=fn, payload=k, seed=derive_seed(3, k)) for k in range(n)
    ]


def run_traced(tmp_path, jobs, *, fn=seeded_value, retries=1, tag=""):
    trace_dir = tmp_path / f"trace_j{jobs}{tag}"
    report = run_tasks(
        make_tasks(fn),
        EngineConfig(
            jobs=jobs,
            retries=retries,
            trace_dir=trace_dir,
            trace_id=TRACE_ID,
            run_key="pipeline-test",
        ),
    )
    return trace_dir, report


def shape(trace: dict) -> set[tuple[str, str, str]]:
    """The timestamp-free identity of a merged trace."""
    return {(s["id"], s["parent"], s["name"]) for s in trace["spans"]}


class TestSpanTree:
    def test_every_task_leaves_a_parented_span_tree(self, tmp_path):
        trace_dir, report = run_traced(tmp_path, jobs=1)
        assert report.ok_count == N_TASKS
        trace = load_trace(trace_dir)

        batch_id = batch_span_id(TRACE_ID, "pipeline-test")
        by_id = {s["id"]: s for s in trace["spans"]}
        assert by_id[batch_id]["parent"] == ""
        for k in range(N_TASKS):
            task_id = task_span_id(TRACE_ID, batch_id, k)
            assert by_id[task_id]["parent"] == batch_id
            assert by_id[task_id]["fields"]["status"] == "ok"
            attempt_id = attempt_span_id(TRACE_ID, task_id, 0)
            assert by_id[attempt_id]["parent"] == task_id

    def test_summary_counts(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1)
        summary = summarize_trace(load_trace(trace_dir))
        assert summary["batches"] == 1
        assert summary["tasks"] == N_TASKS
        assert summary["attempts"] == N_TASKS
        assert summary["failed_tasks"] == 0
        assert summary["trace_ids"] == [TRACE_ID]

    def test_checkpoint_io_span_recorded(self, tmp_path):
        trace_dir = tmp_path / "trace_ckpt"
        run_tasks(
            make_tasks(),
            EngineConfig(
                retries=1,
                trace_dir=trace_dir,
                trace_id=TRACE_ID,
                run_key="ckpt",
                checkpoint_path=tmp_path / "ckpt.jsonl",
            ),
        )
        trace = load_trace(trace_dir)
        io_spans = [s for s in trace["spans"] if s["name"] == "checkpoint.io"]
        assert len(io_spans) == 1
        assert io_spans[0]["fields"]["appends"] == N_TASKS
        assert io_spans[0]["parent"] == batch_span_id(TRACE_ID, "ckpt")


class TestMergeDeterminism:
    def test_jobs_invariant_span_tree(self, tmp_path):
        """Same seed + same trace id => identical merged span tree at
        any worker count, modulo timestamps (the ISSUE acceptance
        property)."""
        shapes = []
        for jobs in (1, 2):
            trace_dir, _ = run_traced(tmp_path, jobs=jobs)
            shapes.append(shape(load_trace(trace_dir)))
        assert shapes[0] == shapes[1]

    def test_retries_are_traced_identically_across_jobs(self, tmp_path):
        shapes = []
        for jobs in (1, 2):
            trace_dir, report = run_traced(
                tmp_path, jobs=jobs, fn=flaky_once, retries=2
            )
            assert report.ok_count == N_TASKS
            summary = summarize_trace(load_trace(trace_dir))
            assert summary["attempts"] == 2 * N_TASKS
            assert summary["retried_tasks"] == N_TASKS
            shapes.append(shape(load_trace(trace_dir)))
        assert shapes[0] == shapes[1]

    def test_remerge_is_idempotent(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1)
        first = shape(load_trace(trace_dir))
        merge_trace(trace_dir)
        assert shape(load_trace(trace_dir)) == first


class TestFailureForensics:
    def test_failed_task_spans_and_events(self, tmp_path):
        trace_dir, report = run_traced(
            tmp_path, jobs=1, fn=always_diverges, retries=1
        )
        assert report.failed_count == N_TASKS
        trace = load_trace(trace_dir)
        summary = summarize_trace(trace)
        assert summary["failed_tasks"] == N_TASKS
        # one forensics event per ConvergenceError attempt
        assert summary["convergence_events"] == 2 * N_TASKS
        tasks = [s for s in trace["spans"] if s["name"] == "task"]
        assert all(s["fields"]["status"] == "failed" for s in tasks)
        assert all(s["fields"]["error_type"] == "ConvergenceError" for s in tasks)

    def test_convergence_report_groups_per_task(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1, fn=always_diverges, retries=0)
        report = format_convergence(load_trace(trace_dir))
        for k in range(N_TASKS):
            assert f"task {k}:" in report
        assert "ConvergenceError" in report
        assert "no operating point" in report

    def test_clean_trace_reports_no_failures(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1)
        assert "no convergence failures" in format_convergence(load_trace(trace_dir))


class TestMergeRobustness:
    def test_torn_sink_tail_tolerated(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1)
        before = shape(load_trace(trace_dir))
        sink = sorted(trace_dir.glob("worker-*.jsonl"))[0]
        with sink.open("a") as handle:
            handle.write('{"kind": "span", "id": "dead')  # SIGKILL mid-write
        merge_trace(trace_dir)
        assert shape(load_trace(trace_dir)) == before

    def test_checkpoint_log_in_trace_dir_is_not_a_source(self, tmp_path):
        trace_dir = tmp_path / "trace_with_ckpt"
        checkpoint = trace_dir / "ckpt.jsonl"
        run_tasks(
            make_tasks(),
            EngineConfig(
                retries=1,
                trace_dir=trace_dir,
                trace_id=TRACE_ID,
                run_key="ckpt",
                checkpoint_path=checkpoint,
            ),
        )
        assert checkpoint.exists()
        sinks = sorted(p.name for p in trace_dir.glob("*.jsonl") if p != checkpoint)
        assert sinks
        assert load_trace(trace_dir)["sources"] == sinks

    def test_merge_is_atomic_and_loadable_from_dir_or_file(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1)
        from_dir = load_trace(trace_dir)
        from_file = load_trace(trace_dir / "trace.json")
        assert shape(from_dir) == shape(from_file)
        assert not list(trace_dir.glob("*.tmp"))

    def test_load_missing_trace_raises_with_hint(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--trace-dir"):
            load_trace(tmp_path / "nowhere")

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"schema": "other/v1", "spans": []}))
        with pytest.raises(ValueError, match="other/v1"):
            load_trace(path)


class TestCoverage:
    def _trace(self, batch, tasks):
        spans = [
            {"id": "b", "parent": "", "name": "batch",
             "t0_unix": batch[0], "dur_s": batch[1] - batch[0]},
        ]
        for i, (lo, hi) in enumerate(tasks):
            spans.append(
                {"id": f"t{i}", "parent": "b", "name": "task",
                 "t0_unix": lo, "dur_s": hi - lo}
            )
        return {"spans": spans, "events": []}

    def test_full_coverage(self):
        trace = self._trace((0.0, 10.0), [(0.0, 5.0), (5.0, 10.0)])
        assert summarize_trace(trace)["task_coverage"] == pytest.approx(1.0)

    def test_partial_coverage(self):
        trace = self._trace((0.0, 10.0), [(0.0, 5.0)])
        assert summarize_trace(trace)["task_coverage"] == pytest.approx(0.5)

    def test_overlapping_tasks_not_double_counted(self):
        trace = self._trace((0.0, 10.0), [(0.0, 6.0), (2.0, 6.0)])
        assert summarize_trace(trace)["task_coverage"] == pytest.approx(0.6)

    def test_task_time_outside_batch_window_clipped(self):
        trace = self._trace((0.0, 10.0), [(8.0, 14.0)])
        assert summarize_trace(trace)["task_coverage"] == pytest.approx(0.2)


class TestSinkHygiene:
    def test_one_sink_file_per_role_and_pid(self, tmp_path):
        trace_dir, _ = run_traced(tmp_path, jobs=1)
        names = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        assert any(n.startswith("scheduler-") for n in names)
        assert any(n.startswith("worker-") for n in names)

    def test_sink_meta_header_carries_trace_id(self, tmp_path):
        sink = SpanSink(tmp_path, role="worker", trace_id=TRACE_ID)
        sink.write_event("hello")
        sink.close()
        first = json.loads(sink.path.read_text().splitlines()[0])
        assert first["kind"] == "meta"
        assert first["trace_id"] == TRACE_ID

    def test_spec_for_batch_reuses_pinned_trace_id(self, tmp_path):
        spec = TraceContext.for_batch(tmp_path, "k", trace_id=TRACE_ID)
        assert spec.trace_id == TRACE_ID
        assert spec.parent_span_id == batch_span_id(TRACE_ID, "k")
        assert spec.directory == str(tmp_path)
        fresh = TraceContext.for_batch(tmp_path, "k")
        assert fresh.trace_id != TRACE_ID


class TestSessionEvents:
    """Worker sessions stream their events beside their spans, at the
    log level of the session the batch runs under."""

    def run_divider(self, tmp_path, jobs, log_level):
        trace_dir = tmp_path / f"events_j{jobs}_{log_level}"
        tasks = [
            Task(index=k, fn=divider_solve, payload=k, seed=derive_seed(3, k))
            for k in range(2)
        ]
        config = EngineConfig(
            jobs=jobs, trace_dir=trace_dir, trace_id=TRACE_ID, run_key="events"
        )
        with telemetry.enabled(log_level=log_level):
            run_tasks(tasks, config)
        return load_trace(trace_dir)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_debug_events_reach_the_trace(self, tmp_path, jobs):
        trace = self.run_divider(tmp_path, jobs, "debug")
        converged = [e for e in trace["events"] if e["name"] == "dcop.converged"]
        assert len(converged) == 2
        assert {e["level"] for e in converged} == {"debug"}
        assert {e["fields"]["tier"] for e in converged} == {"cold_start"}
        assert all(e["fields"]["span"] == "dcop" for e in converged)
        attempts = [s for s in trace["spans"] if s["name"] == "attempt"]
        for event in converged:
            assert min(s["t0_unix"] for s in attempts) <= event["t_unix"]

    def test_events_below_the_level_stay_out(self, tmp_path):
        trace = self.run_divider(tmp_path, 1, "info")
        assert trace["events"] == []
        assert any(s["name"] == "dcop" for s in trace["spans"])
