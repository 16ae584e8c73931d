"""Tests for the JSONL checkpoint log."""

from __future__ import annotations

import json
import math

import pytest

from repro.engine.checkpoint import CHECKPOINT_SCHEMA, CheckpointLog, CheckpointMismatch
from repro.engine.jobs import TaskOutcome


def make_log(tmp_path, run_key="test:run", root_seed=9):
    return CheckpointLog(tmp_path / "run.jsonl", run_key, root_seed)


class TestWriteAndLoad:
    def test_fresh_log_round_trips_outcomes(self, tmp_path):
        log = make_log(tmp_path)
        log.open_fresh()
        log.append(TaskOutcome(index=0, status="ok", value=1.0))
        log.append(TaskOutcome(index=2, status="ok", value=math.inf))
        log.close()

        done = make_log(tmp_path).load()
        assert sorted(done) == [0, 2]
        assert done[0].value == 1.0
        assert done[2].value == math.inf

    def test_missing_file_loads_empty(self, tmp_path):
        assert make_log(tmp_path).load() == {}

    def test_header_is_first_line(self, tmp_path):
        log = make_log(tmp_path)
        log.open_fresh()
        log.close()
        header = json.loads((tmp_path / "run.jsonl").read_text().splitlines()[0])
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["run_key"] == "test:run"
        assert header["root_seed"] == 9

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(RuntimeError):
            make_log(tmp_path).append(TaskOutcome(index=0, status="ok"))


class TestMismatch:
    def test_wrong_run_key(self, tmp_path):
        log = make_log(tmp_path, run_key="a")
        log.open_fresh()
        log.close()
        with pytest.raises(CheckpointMismatch, match="belongs to run"):
            make_log(tmp_path, run_key="b").load()

    def test_wrong_root_seed(self, tmp_path):
        log = make_log(tmp_path, root_seed=1)
        log.open_fresh()
        log.close()
        with pytest.raises(CheckpointMismatch, match="--seed"):
            make_log(tmp_path, root_seed=2).load()

    def test_wrong_schema(self, tmp_path):
        (tmp_path / "run.jsonl").write_text(
            json.dumps({"schema": "other/v0", "run_key": "test:run", "root_seed": 9})
            + "\n"
        )
        with pytest.raises(CheckpointMismatch, match="schema"):
            make_log(tmp_path).load()

    def test_unreadable_header(self, tmp_path):
        (tmp_path / "run.jsonl").write_text("not json\n")
        with pytest.raises(CheckpointMismatch, match="unreadable"):
            make_log(tmp_path).load()


class TestInterruptedRuns:
    def test_torn_tail_is_ignored(self, tmp_path):
        log = make_log(tmp_path)
        log.open_fresh()
        log.append(TaskOutcome(index=0, status="ok", value=1.0))
        log.close()
        with (tmp_path / "run.jsonl").open("a") as handle:
            handle.write('{"index": 1, "status": "o')  # killed mid-write

        done = make_log(tmp_path).load()
        assert sorted(done) == [0]

    def test_open_resumed_compacts_torn_tail(self, tmp_path):
        log = make_log(tmp_path)
        log.open_fresh()
        log.append(TaskOutcome(index=0, status="ok", value=1.0))
        log.close()
        with (tmp_path / "run.jsonl").open("a") as handle:
            handle.write('{"torn')

        log = make_log(tmp_path)
        done = log.open_resumed()
        assert sorted(done) == [0]
        log.append(TaskOutcome(index=1, status="ok", value=2.0))
        log.close()

        # After compaction + append every line parses again.
        done = make_log(tmp_path).load()
        assert sorted(done) == [0, 1]

    def test_interrupted_compaction_keeps_every_record(self, tmp_path, monkeypatch):
        log = make_log(tmp_path)
        log.open_fresh()
        for index in range(10):
            log.append(TaskOutcome(index=index, status="ok", value=float(index)))
        log.close()

        class Killed(Exception):
            pass

        write_line = CheckpointLog._write_line
        written = []

        def killed_at_fourth_line(self, record):
            written.append(record)
            if len(written) == 4:
                raise Killed
            write_line(self, record)

        monkeypatch.setattr(CheckpointLog, "_write_line", killed_at_fourth_line)
        resumed = make_log(tmp_path)
        with pytest.raises(Killed):
            resumed.open_resumed()
        resumed.close()
        monkeypatch.undo()

        assert sorted(make_log(tmp_path).load()) == list(range(10))

    def test_open_resumed_keeps_only_the_asked_for_indices(self, tmp_path):
        log = make_log(tmp_path)
        log.open_fresh()
        for index in range(3):
            log.append(TaskOutcome(index=index, status="ok", value=float(index)))
        log.close()

        log = make_log(tmp_path)
        assert sorted(log.open_resumed(keep=[0, 2, 7])) == [0, 2]
        log.close()
        assert sorted(make_log(tmp_path).load()) == [0, 2]

    def test_open_resumed_without_file_degrades_to_fresh(self, tmp_path):
        log = make_log(tmp_path)
        assert log.open_resumed() == {}
        log.append(TaskOutcome(index=0, status="ok", value=0.5))
        log.close()
        assert sorted(make_log(tmp_path).load()) == [0]
