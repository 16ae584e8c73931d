"""Tests for the telemetry primitives and global session management."""

from __future__ import annotations

import pytest

from repro.telemetry import core as telemetry
from repro.telemetry.core import Histogram, TelemetrySession


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with telemetry off."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["total"] == 10.0
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["mean"] == 2.5
        assert snap["p50"] == pytest.approx(2.5)

    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {"count": 0, "total": 0.0}

    def test_reservoir_is_bounded_but_count_exact(self):
        h = Histogram(max_samples=8)
        for v in range(100):
            h.record(float(v))
        assert h.count == 100
        assert len(h.samples) == 8
        assert h.maximum == 99.0


class TestSession:
    def test_counters_accumulate(self):
        tel = TelemetrySession()
        tel.count("a")
        tel.count("a", 4)
        assert tel.counters["a"] == 5

    def test_observe_and_add_time_separate_namespaces(self):
        tel = TelemetrySession()
        tel.observe("x", 1.0)
        tel.add_time("x", 2.0)
        assert tel.histograms["x"].count == 1
        assert tel.timers["x"].total == 2.0

    def test_time_block_records_duration(self):
        ticks = iter([0.0, 0.0, 1.5])  # started, block start, block end
        tel = TelemetrySession(clock=lambda: next(ticks))
        with tel.time_block("work"):
            pass
        assert tel.timers["work"].total == pytest.approx(1.5)

    def test_event_level_filtering(self):
        tel = TelemetrySession(log_level="warning")
        tel.event("quiet", level="debug")
        tel.event("loud", level="error", detail=7)
        assert [e["name"] for e in tel.events] == ["loud"]
        assert tel.events[0]["detail"] == 7

    def test_event_fields_cannot_corrupt_core_keys(self):
        tel = TelemetrySession()
        tel.event("e", t="bogus", seq="bogus")
        record = tel.events[0]
        assert record["name"] == "e"
        assert isinstance(record["t"], float)
        assert record["seq"] == 1

    def test_event_cap_counts_drops(self):
        tel = TelemetrySession(max_events=2)
        for _ in range(5):
            tel.event("e")
        assert len(tel.events) == 2
        assert tel.dropped_events == 3

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            TelemetrySession(log_level="loud")

    def test_spans_nest_and_record_timers(self):
        tel = TelemetrySession(log_level="debug")
        with tel.span("outer"):
            with tel.span("inner"):
                assert tel.span_path == "outer/inner"
                tel.event("inside")
        assert tel.span_path == ""
        assert "span.outer" in tel.timers
        assert "span.outer/inner" in tel.timers
        # Each span is one record holding its start and duration; spans
        # emit no begin/end events of their own.
        assert [s["name"] for s in tel.spans] == ["inner", "outer"]
        assert [e["name"] for e in tel.events] == ["inside"]
        assert tel.events[0]["span"] == "outer/inner"


class TestGlobalSession:
    def test_off_by_default(self):
        assert telemetry.active() is None

    def test_enable_disable_cycle(self):
        session = telemetry.enable(log_level="debug")
        assert telemetry.active() is session
        returned = telemetry.disable()
        assert returned is session
        assert telemetry.active() is None

    def test_enabled_scope_restores_previous(self):
        outer = telemetry.enable()
        with telemetry.enabled() as inner:
            assert telemetry.active() is inner
            assert inner is not outer
        assert telemetry.active() is outer

    def test_enabled_scope_restores_none(self):
        with telemetry.enabled():
            assert telemetry.active() is not None
        assert telemetry.active() is None

    def test_enabled_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.enabled():
                raise RuntimeError("boom")
        assert telemetry.active() is None
