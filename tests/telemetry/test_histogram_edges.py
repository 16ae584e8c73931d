"""Edge-case tests for Histogram and the session span-record substrate.

Pins the corners the observability pipeline leans on: empty/single
snapshots, percentile extremes and clamping, the bounded sample
reservoir, deterministic span ids under a shared trace context, and
the span cap.
"""

from __future__ import annotations

import pytest

from repro.telemetry.core import (
    Histogram,
    TelemetrySession,
    TraceContext,
    derive_span_id,
)


class TestHistogramEdges:
    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {"count": 0, "total": 0.0}

    def test_empty_percentile_and_mean(self):
        hist = Histogram()
        assert hist.percentile(50.0) == 0.0
        assert hist.mean == 0.0

    def test_single_sample(self):
        hist = Histogram()
        hist.record(7.5)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == snap["mean"] == 7.5
        assert snap["p50"] == snap["p90"] == 7.5
        assert hist.percentile(0.0) == hist.percentile(100.0) == 7.5

    def test_percentile_extremes_hit_min_and_max(self):
        hist = Histogram()
        for v in (3.0, 1.0, 4.0, 1.0, 5.0):
            hist.record(v)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(100.0) == 5.0
        assert hist.percentile(50.0) == 3.0

    def test_out_of_range_q_clamped(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0):
            hist.record(v)
        assert hist.percentile(-20.0) == 1.0
        assert hist.percentile(150.0) == 3.0

    def test_reservoir_bounded_while_exact_stats_keep_growing(self):
        hist = Histogram()
        n = 2_000
        for i in range(n):
            hist.record(float(i))
        assert hist.max_samples == 512
        assert len(hist.samples) == 512
        snap = hist.snapshot()
        assert snap["count"] == n
        assert snap["total"] == pytest.approx(n * (n - 1) / 2.0)
        assert snap["min"] == 0.0
        assert snap["max"] == float(n - 1)  # exact even once outside reservoir
        # the reservoir samples the whole stream, not its first 512 values
        assert snap["p50"] == pytest.approx(1000.0, rel=0.10)

    def test_reservoir_is_deterministic(self):
        def filled():
            hist = Histogram(max_samples=16)
            for i in range(1_000):
                hist.record(float(i))
            return hist

        assert filled().samples == filled().samples
        assert filled().snapshot() == filled().snapshot()

    def test_interpolated_percentile(self):
        hist = Histogram()
        hist.record(0.0)
        hist.record(10.0)
        assert hist.percentile(50.0) == pytest.approx(5.0)
        assert hist.percentile(25.0) == pytest.approx(2.5)


class TestSpanRecords:
    def session(self):
        return TelemetrySession(
            trace=TraceContext(trace_id="0123456789abcdef", parent_span_id="root")
        )

    def record_spans(self, tel):
        with tel.span("dcop"):
            with tel.span("newton"):
                pass
        with tel.span("dcop"):
            pass

    def test_ids_deterministic_under_shared_context(self):
        a, b = self.session(), self.session()
        self.record_spans(a)
        self.record_spans(b)
        strip = lambda spans: [
            (s["id"], s["parent"], s["name"]) for s in spans
        ]
        assert strip(a.spans) == strip(b.spans)
        # repeated same-name spans get distinct ids from the sequence
        ids = {s["id"] for s in a.spans}
        assert len(ids) == 3

    def test_top_level_spans_parent_to_context(self):
        tel = self.session()
        self.record_spans(tel)
        dcop_spans = [s for s in tel.spans if s["name"] == "dcop"]
        assert all(s["parent"] == "root" for s in dcop_spans)
        newton = next(s for s in tel.spans if s["name"] == "newton")
        assert newton["parent"] in {s["id"] for s in dcop_spans}

    def test_derive_span_id_is_pure_and_position_sensitive(self):
        same = derive_span_id("t", "p", "n", 1)
        assert derive_span_id("t", "p", "n", 1) == same
        assert len(same) == 16
        assert derive_span_id("t", "p", "n", 2) != same
        assert derive_span_id("t", "q", "n", 1) != same
        assert derive_span_id("u", "p", "n", 1) != same

    def test_span_cap_counts_drops(self):
        tel = TelemetrySession(max_spans=2)
        for _ in range(5):
            with tel.span("s"):
                pass
        assert len(tel.spans) == 2
        assert tel.dropped_spans == 3
