"""CLI tests for ``repro trace`` and ``repro bench``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.engine import EngineConfig, Task, derive_seed, run_tasks

from obs_helpers import flaky_once, seeded_value

TRACE_ID = "c11c11c11c11c11c"


@pytest.fixture()
def traced_dir(tmp_path):
    trace_dir = tmp_path / "trace"
    tasks = [
        Task(index=k, fn=seeded_value, payload=k, seed=derive_seed(3, k))
        for k in range(3)
    ] + [Task(index=3, fn=flaky_once, payload=None, seed=derive_seed(3, 3))]
    run_tasks(
        tasks,
        EngineConfig(
            retries=1, trace_dir=trace_dir, trace_id=TRACE_ID, run_key="cli"
        ),
    )
    return trace_dir


class TestTraceVerbs:
    def test_summary(self, traced_dir, capsys):
        assert main(["trace", "summary", "--trace", str(traced_dir)]) == 0
        out = capsys.readouterr().out
        assert "== trace summary ==" in out
        assert TRACE_ID in out
        assert "4 tasks" in out

    def test_timeline(self, traced_dir, capsys):
        assert main(
            ["trace", "timeline", "--trace", str(traced_dir), "--width", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "== task timeline ==" in out
        assert "lane  0" in out

    def test_slowest(self, traced_dir, capsys):
        assert main(["trace", "slowest", "--trace", str(traced_dir), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "== slowest tasks (top 2 of 4) ==" in out
        assert "newton iters" in out

    def test_convergence(self, traced_dir, capsys):
        assert main(["trace", "convergence", "--trace", str(traced_dir)]) == 0
        out = capsys.readouterr().out
        assert "== convergence forensics ==" in out
        assert "task 3:" in out

    def test_accepts_merged_file_path(self, traced_dir, capsys):
        path = traced_dir / "trace.json"
        assert main(["trace", "summary", "--trace", str(path)]) == 0
        assert "== trace summary ==" in capsys.readouterr().out

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summary", "--trace", str(tmp_path / "none")]) == 2
        assert "no merged trace" in capsys.readouterr().err


class TestBenchVerbs:
    def write_bench(self, root, speedup, created=1.0):
        (root / "BENCH_engine.json").write_text(
            json.dumps(
                {
                    "schema": "repro.bench.engine/v1",
                    "created_unix": created,
                    "speedup": speedup,
                    "min_speedup": 2.0,
                }
            )
        )

    def test_history_records_and_prints(self, tmp_path, capsys):
        self.write_bench(tmp_path, 3.5)
        hist = tmp_path / "hist.jsonl"
        args = ["bench", "history", "--root", str(tmp_path), "--history", str(hist)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "recorded 1 new bench result(s)" in out
        assert "== bench history ==" in out
        # idempotent on the second pass over the same BENCH file
        assert main(args) == 0
        assert "recorded" not in capsys.readouterr().out

    def test_check_passes_when_healthy(self, tmp_path, capsys):
        self.write_bench(tmp_path, 3.5)
        hist = tmp_path / "hist.jsonl"
        assert main(
            ["bench", "check", "--root", str(tmp_path), "--history", str(hist)]
        ) == 0
        assert "no regressions detected" in capsys.readouterr().out

    def test_check_flags_regression(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        self.write_bench(tmp_path, 3.5, created=1.0)
        assert main(
            ["bench", "history", "--root", str(tmp_path), "--history", str(hist)]
        ) == 0
        self.write_bench(tmp_path, 1.2, created=2.0)
        assert main(
            ["bench", "check", "--root", str(tmp_path), "--history", str(hist)]
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSION:" in out
        assert "hard gate" in out
