"""Tests for the manifest's Prometheus text and its one writer."""

from __future__ import annotations

import json

from repro.telemetry.core import TelemetrySession, TraceContext
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    to_prometheus,
    write_manifest,
)


def make_session() -> TelemetrySession:
    tel = TelemetrySession(trace=TraceContext(trace_id="abad1deaabad1dea"))
    tel.count("dcop.solves", 7)
    tel.count("dcop.converged.warm_start", 5)
    tel.observe("newton.iters_per_solve", 4.0)
    tel.observe("newton.iters_per_solve", 8.0)
    tel.add_time("dcop.wall", 0.25)
    return tel


class TestPrometheus:
    def test_counters_sanitized_and_suffixed(self):
        text = to_prometheus(make_session().snapshot())
        assert "# TYPE repro_dcop_solves_total counter" in text
        assert "repro_dcop_solves_total 7" in text
        assert "repro_dcop_converged_warm_start_total 5" in text

    def test_leading_digit_names_stay_legal(self):
        text = to_prometheus({"counters": {"6t.cell": 1}})
        assert "repro__6t_cell_total 1" in text

    def test_histograms_render_as_summaries(self):
        text = to_prometheus(make_session().snapshot())
        assert "# TYPE repro_newton_iters_per_solve summary" in text
        assert "repro_newton_iters_per_solve_count 2" in text
        assert 'repro_newton_iters_per_solve{quantile="0.5"}' in text

    def test_timers_suffixed_seconds(self):
        text = to_prometheus(make_session().snapshot())
        assert "# TYPE repro_dcop_wall_seconds summary" in text
        assert "repro_dcop_wall_seconds_sum 0.25" in text

    def test_run_label_applied_and_escaped(self):
        manifest = build_manifest('fig"09"', "t", None, make_session(), 2.0)
        text = to_prometheus(manifest)
        assert 'repro_dcop_solves_total{run="fig\\"09\\""} 7' in text
        assert "# TYPE repro_run_duration_seconds gauge" in text
        assert 'repro_run_duration_seconds{run="fig\\"09\\""} 2.0' in text
        assert '{run="fig\\"09\\"",quantile="0.5"}' in text

    def test_non_finite_values_rendered_per_spec(self):
        text = to_prometheus(
            {"counters": {}, "timers": {"t": {"count": 1, "total": float("inf")}}}
        )
        assert "repro_t_seconds_sum +Inf" in text
        nan_text = to_prometheus(
            {"timers": {"t": {"count": 1, "total": float("nan")}}}
        )
        assert "repro_t_seconds_sum NaN" in nan_text

    def test_ends_with_newline(self):
        assert to_prometheus({}).endswith("\n")


class TestWriteMetrics:
    def test_writes_both_formats_atomically(self, tmp_path):
        json_path = tmp_path / "m.json"
        written = write_manifest(
            build_manifest("fig09", "t", None, make_session(), 1.0), json_path
        )
        assert written == json_path
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["telemetry"]["counters"]["dcop.solves"] == 7
        assert (tmp_path / "m.prom").read_text().startswith("#")
        assert not list(tmp_path.glob("*.tmp"))

    def test_trace_id_defaults_to_session(self, tmp_path):
        write_manifest(
            build_manifest("fig09", "t", None, make_session(), 1.0),
            tmp_path / "m.json",
        )
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["trace_id"] == "abad1deaabad1dea"
