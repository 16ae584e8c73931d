"""Tests for bench-regression tracking (headline records + history gate)."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    RECORD_SCHEMA,
    append_history,
    bench_record,
    check_history,
    collect_bench_files,
    format_history,
    load_history,
)


def engine_payload(speedup=3.5, created=1.0):
    return {
        "schema": "repro.bench.engine/v1",
        "created_unix": created,
        "speedup": speedup,
        "min_speedup": 2.0,
    }


def char_payload(speedup=500.0, created=1.0):
    return {
        "schema": "repro.bench.char/v1",
        "created_unix": created,
        "speedup": speedup,
        "min_speedup": 5.0,
    }


def telemetry_payload(overhead=0.001, created=1.0):
    return {
        "schema": "repro.bench.telemetry/v1",
        "created_unix": created,
        "disabled_overhead_guard": {
            "overhead_fraction": overhead,
            "budget_fraction": 0.03,
        },
    }


def record(payload, source="BENCH_x.json"):
    rec = bench_record(payload, source)
    assert rec is not None
    return rec


class TestBenchRecord:
    def test_engine_headline(self):
        rec = record(engine_payload(), "BENCH_engine.json")
        assert rec["schema"] == RECORD_SCHEMA
        assert rec["bench"] == "engine"
        assert rec["metric"] == "speedup"
        assert rec["direction"] == "higher"
        assert rec["value"] == 3.5
        assert rec["limit"] == 2.0
        assert rec["source"] == "BENCH_engine.json"

    def test_telemetry_headline_is_nested_and_lower_is_better(self):
        rec = record(telemetry_payload())
        assert rec["bench"] == "telemetry"
        assert rec["metric"] == "disabled_overhead_guard.overhead_fraction"
        assert rec["direction"] == "lower"
        assert rec["value"] == 0.001
        assert rec["limit"] == 0.03

    def test_serve_headline_gates_warm_p99(self):
        rec = record(
            {
                "schema": "repro.bench.serve/v1",
                "created_unix": 2.0,
                "p50_warm_s": 0.002,
                "p99_warm_s": 0.004,
                "gate_p99_s": 0.25,
            },
            "BENCH_serve.json",
        )
        assert rec["bench"] == "serve"
        assert rec["metric"] == "p99_warm_s"
        assert rec["direction"] == "lower"
        assert rec["value"] == 0.004
        assert rec["limit"] == 0.25

    def test_unknown_schema_falls_back_to_top_level_speedup(self):
        rec = record({"schema": "repro.bench.future/v9", "speedup": 4.0})
        assert rec["value"] == 4.0
        assert rec["limit"] is None

    def test_unrecognizable_payload_skipped(self):
        assert bench_record({"schema": "x/v1", "other": 1}, "s") is None
        assert bench_record({"schema": "repro.bench.engine/v1"}, "s") is None


class TestHistory:
    def test_append_is_idempotent_on_created_stamp(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        recs = [record(engine_payload(created=1.0))]
        assert append_history(recs, path) == 1
        assert append_history(recs, path) == 0
        assert append_history([record(engine_payload(created=2.0))], path) == 1
        assert len(load_history(path)) == 2

    def test_load_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history([record(engine_payload())], path)
        with path.open("a") as handle:
            handle.write('{"schema": "other"}\n')
            handle.write('{"torn')
        assert len(load_history(path)) == 1

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == []

    def test_collects_bench_files_sorted(self, tmp_path):
        for name in ("BENCH_b.json", "BENCH_a.json", "other.json"):
            (tmp_path / name).write_text("{}")
        assert [p.name for p in collect_bench_files(tmp_path)] == [
            "BENCH_a.json",
            "BENCH_b.json",
        ]


class TestCheckHistory:
    def history(self, *values, payload=engine_payload):
        return [
            record(payload(v, created=float(i))) for i, v in enumerate(values)
        ]

    def test_healthy_history_passes(self):
        assert check_history(self.history(3.5, 3.6, 3.7)) == []

    def test_hard_gate_breach_flagged(self):
        problems = check_history(self.history(3.5, 1.2))
        assert any("hard gate" in p for p in problems)

    def test_trajectory_drop_flagged_even_above_gate(self):
        # 2.4x still beats the 2.0x gate but is a >25% drop from the
        # 3.6x median — exactly the silent erosion the tracker exists for.
        problems = check_history(self.history(3.5, 3.6, 3.7, 2.4))
        assert len(problems) == 1
        assert "below its baseline median" in problems[0]

    def test_trajectory_drop_within_tolerance_passes(self):
        assert check_history(self.history(3.5, 3.6, 3.7, 3.0)) == []

    def test_lower_is_better_judged_on_budget_only(self):
        # overhead doubling is jitter while under budget...
        doubled = self.history(0.001, 0.002, payload=telemetry_payload)
        assert check_history(doubled) == []
        # ...but breaching the hard budget is a regression
        over = self.history(0.001, 0.05, payload=telemetry_payload)
        problems = check_history(over)
        assert any("exceeds its budget" in p for p in problems)

    def test_char_ratio_judged_on_its_gate_only(self):
        # char's cold/warm ratio halves when a faster solver halves the
        # cold build: above its gate that is no regression...
        assert check_history(self.history(1052.0, 500.0, 250.0, payload=char_payload)) == []
        below = check_history(self.history(1052.0, 4.0, payload=char_payload))
        assert len(below) == 1 and "hard gate" in below[0]
        # ...while an engine speedup that halves above its gate still fails.
        halved = check_history(self.history(8.0, 8.0, 4.0))
        assert len(halved) == 1 and "below its baseline median" in halved[0]

    def test_tolerance_validated(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_history([], tolerance=1.5)
        with pytest.raises(ValueError, match="tolerance"):
            check_history([], tolerance=-0.1)

    def test_single_record_judged_on_gate_only(self):
        assert check_history(self.history(3.5)) == []
        assert check_history(self.history(1.0)) != []


class TestFormatHistory:
    def test_status_column(self, tmp_path):
        healthy = [record(engine_payload(3.5, 1.0)), record(engine_payload(3.6, 2.0))]
        text = format_history(healthy)
        assert "== bench history ==" in text
        assert "ok" in text and "REGRESSED" not in text

        regressed = healthy + [record(engine_payload(1.2, 3.0))]
        assert "REGRESSED" in format_history(regressed)

    def test_empty_history_hint(self):
        assert "bench_track" in format_history([])

    def test_records_round_trip_as_json_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history([record(engine_payload())], path)
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema"] == RECORD_SCHEMA


class TestRetiredBenches:
    def fleet_record(self, value):
        # As recorded while the fleet bench existed: gated by its own
        # min_speedup of 2.0.
        return {**record(engine_payload(value)), "bench": "serve_fleet",
                "bench_schema": "repro.bench.serve_fleet/v1"}

    def test_family_gone_from_headlines_is_not_judged(self):
        # The fleet bench is deleted; even a gate breach in its last
        # record no longer fails the check.
        assert check_history([self.fleet_record(1.0)]) == []
        assert check_history([self.fleet_record(1.0), record(engine_payload(1.2))]) != []

    def test_retired_bench_stays_in_the_table(self):
        text = format_history([self.fleet_record(1.0), record(engine_payload(3.5))])
        assert "serve_fleet" in text and "retired" in text
        assert "REGRESSED" not in text


def test_committed_bench_results_are_recorded():
    """Every committed BENCH_*.json is already in the tracked history, so
    ``scripts/bench_track.py --check`` on a fresh checkout appends
    nothing to it."""
    from pathlib import Path

    from repro.obs.bench import DEFAULT_HISTORY

    root = Path(__file__).resolve().parents[2]
    recorded = {(r["bench"], r["created_unix"]) for r in load_history(root / DEFAULT_HISTORY)}
    for path in collect_bench_files(root):
        rec = bench_record(json.loads(path.read_text()), path.name)
        if rec is not None:
            assert (rec["bench"], rec["created_unix"]) in recorded, (
                f"{path.name} is not in {DEFAULT_HISTORY}; run scripts/bench_track.py"
            )
