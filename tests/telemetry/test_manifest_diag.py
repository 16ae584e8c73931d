"""Tests for run manifests and the diag report."""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.experiments.common import ExperimentResult
from repro.telemetry.core import TelemetrySession, TraceContext
from repro.telemetry.diag import format_diag_report, load_manifests
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifest_path,
    result_checksum,
    write_manifest,
)


def make_result():
    result = ExperimentResult("figX", "demo", ["beta", "wl (ps)"])
    result.add_row(0.6, 14.0)
    result.add_row(1.0, math.inf)
    result.notes.append("shape note")
    return result


class TestChecksum:
    def test_deterministic(self):
        assert result_checksum(make_result()) == result_checksum(make_result())

    def test_sensitive_to_values(self):
        a = make_result()
        b = make_result()
        b.rows[0][1] = 15.0
        assert result_checksum(a) != result_checksum(b)

    def test_handles_nonfinite_rows(self):
        result = make_result()
        result.add_row(2.0, float("nan"))
        assert len(result_checksum(result)) == 64


class TestManifest:
    def build(self):
        tel = TelemetrySession()
        tel.count("dcop.solves", 3)
        tel.count("dcop.converged.warm_start", 2)
        tel.count("dcop.converged.gmin_stepping", 1)
        tel.count("newton.iterations", 40)
        tel.count("transient.steps_accepted", 100)
        tel.count("transient.rejected_dv_limit", 5)
        return build_manifest("figX", "demo title", make_result(), tel, 1.25)

    def test_schema_and_shape(self):
        manifest = self.build()
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["experiment_id"] == "figX"
        assert manifest["wall_time_s"] == 1.25
        assert manifest["result"]["rows"] == 2
        assert manifest["result"]["columns"] == ["beta", "wl (ps)"]
        assert manifest["result"]["notes"] == ["shape note"]
        assert manifest["telemetry"]["counters"]["dcop.solves"] == 3

    def test_write_and_load_round_trip(self, tmp_path):
        manifest = self.build()
        target = manifest_path(tmp_path / "deep" / "dir", "figX")
        path = write_manifest(manifest, target)
        assert path == target
        loaded = load_manifests([path.parent])
        assert len(loaded) == 1
        assert loaded[0]["experiment_id"] == "figX"

    def test_manifest_is_valid_json(self, tmp_path):
        path = write_manifest(self.build(), manifest_path(tmp_path, "figX"))
        json.loads(path.read_text())

    def test_carries_the_session_trace_id(self):
        tel = TelemetrySession(trace=TraceContext(trace_id="abad1deaabad1dea"))
        manifest = build_manifest("figX", "t", make_result(), tel, 1.0)
        assert manifest["trace_id"] == "abad1deaabad1dea"

    def test_result_block_only_with_a_table(self):
        manifest = build_manifest("serve", "daemon", None, TelemetrySession(), 1.0)
        assert "result" not in manifest
        assert manifest["telemetry"]["counters"] == {}

    def test_prometheus_text_written_beside(self, tmp_path):
        path = write_manifest(self.build(), manifest_path(tmp_path, "figX"))
        prom = path.with_suffix(".prom").read_text()
        assert prom.startswith("# repro.run-manifest/v1")
        assert 'repro_dcop_solves_total{run="figX"} 3' in prom


class _TornWriter:
    """A text handle that writes half of what it is given, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(28, "No space left on device")

    def close(self):
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class TestAtomicWrite:
    def test_failed_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        path = manifest_path(tmp_path, "figX")
        write_manifest(TestManifest().build(), path)
        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornWriter(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", torn_open)
        newer = TestManifest().build()
        newer["wall_time_s"] = 9.0
        with pytest.raises(OSError):
            write_manifest(newer, path)
        monkeypatch.undo()
        loaded = load_manifests([tmp_path])
        assert [m["wall_time_s"] for m in loaded] == [1.25]
        assert not list(tmp_path.rglob("*.tmp"))


class TestLoadManifests:
    def test_skips_non_manifest_json(self, tmp_path):
        (tmp_path / "fig02.json").write_text(json.dumps({"rows": []}))
        (tmp_path / "broken_manifest.json").write_text("{not json")
        tel = TelemetrySession()
        write_manifest(
            build_manifest("a", "t", make_result(), tel, 0.1),
            manifest_path(tmp_path, "a"),
        )
        loaded = load_manifests([tmp_path])
        assert [m["experiment_id"] for m in loaded] == ["a"]

    def test_accepts_explicit_files_and_sorts(self, tmp_path):
        tel = TelemetrySession()
        p_b, p_a = (
            write_manifest(
                build_manifest(eid, "t", make_result(), tel, 0.1),
                manifest_path(tmp_path, eid),
            )
            for eid in ("b", "a")
        )
        loaded = load_manifests([p_b, p_a])
        assert [m["experiment_id"] for m in loaded] == ["a", "b"]

    def test_missing_path_ignored(self, tmp_path):
        assert load_manifests([tmp_path / "nope"]) == []

    def test_torn_manifest_is_named_on_stderr(self, tmp_path, capsys):
        from repro.cli import main

        tel = TelemetrySession()
        write_manifest(
            build_manifest("good", "t", make_result(), tel, 0.1),
            manifest_path(tmp_path, "good"),
        )
        torn = manifest_path(tmp_path, "torn")
        torn.write_text(manifest_path(tmp_path, "good").read_text()[:40])

        assert main(["diag", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "good" in captured.out
        assert captured.err.splitlines() == [f"note: skipping unreadable {torn}"]


class TestDiagReport:
    def test_report_rows(self, tmp_path):
        tel = TelemetrySession()
        tel.count("dcop.solves", 7)
        tel.count("dcop.converged.gmin_stepping", 2)
        tel.count("newton.iterations", 99)
        tel.count("transient.steps_accepted", 50)
        tel.count("transient.rejected_newton", 3)
        tel.count("transient.rejected_dv_limit", 1)
        manifest = build_manifest("figX", "demo", make_result(), tel, 2.5)
        write_manifest(manifest, manifest_path(tmp_path, "figX"))

        report = format_diag_report(load_manifests([tmp_path]))
        assert "figX" in report
        assert "2.50" in report
        assert "gmin:2" in report
        assert "50/4" in report  # accepted / (newton + dv rejections)
        assert "99" in report

    def test_empty_report_hint(self):
        report = format_diag_report([])
        assert "no run manifests" in report
        assert "--profile" in report


class TestDiagEngineSection:
    def engine_manifest(self, tmp_path):
        tel = TelemetrySession()
        tel.count("newton.jacobian_stamps", 60)
        tel.count("newton.jacobian_reuses", 40)
        tel.count("engine.retries", 3)
        tel.count("engine.convergence_errors", 5)
        tel.count("engine.tasks_total", 8)
        tel.count("engine.tasks_failed", 1)
        return build_manifest("figMC", "mc", make_result(), tel, 4.0)

    def test_engine_table_renders_when_counters_present(self, tmp_path):
        report = format_diag_report([self.engine_manifest(tmp_path)])
        assert "== engine diagnostics ==" in report
        assert "60/40" in report  # jacobian stamps/reuses
        assert "40%" in report  # reuse fraction
        assert "7/8" in report  # tasks ok/total

    def test_engine_section_absent_without_engine_counters(self):
        tel = TelemetrySession()
        tel.count("dcop.solves", 2)
        manifest = build_manifest("figX", "t", make_result(), tel, 1.0)
        report = format_diag_report([manifest])
        assert "== solver diagnostics ==" in report
        assert "engine diagnostics" not in report

    def test_mixed_manifests_only_engine_rows_listed(self, tmp_path):
        plain = build_manifest("figA", "t", make_result(), TelemetrySession(), 1.0)
        report = format_diag_report([plain, self.engine_manifest(tmp_path)])
        engine_section = report.split("== engine diagnostics ==")[1]
        assert "figMC" in engine_section
        assert "figA" not in engine_section


class TestDiagCharSection:
    def char_manifest(self):
        tel = TelemetrySession()
        tel.count("char.store.hits", 10)
        tel.count("char.store.misses", 6)
        tel.count("char.serve.hits", 4)
        tel.count("char.serve.misses", 1)
        tel.count("char.points_computed", 6)
        tel.count("char.points_failed", 2)
        return build_manifest("charGrid", "char", make_result(), tel, 3.0)

    def test_char_table_renders_when_counters_present(self):
        report = format_diag_report([self.char_manifest()])
        assert "== char diagnostics ==" in report
        assert "10/6" in report  # store hit/miss
        assert "4/1" in report  # serve hit/miss

    def test_char_section_absent_without_char_counters(self):
        tel = TelemetrySession()
        tel.count("dcop.solves", 2)
        manifest = build_manifest("figX", "t", make_result(), tel, 1.0)
        assert "char diagnostics" not in format_diag_report([manifest])

    def test_engine_and_char_sections_coexist(self, tmp_path):
        engine = TestDiagEngineSection().engine_manifest(tmp_path)
        report = format_diag_report([engine, self.char_manifest()])
        assert report.index("== solver diagnostics ==") < report.index(
            "== engine diagnostics =="
        ) < report.index("== char diagnostics ==")


class TestDiagWlCritSection:
    def test_wlcrit_counters_render(self):
        tel = TelemetrySession()
        tel.count("transient.simulations", 11)
        tel.count("wlcrit.steps_resumed", 694)
        tel.count("wlcrit.probes_latched", 9)
        report = format_diag_report([build_manifest("fig04", "t", make_result(), tel, 2.0)])
        section = report.split("== wl_crit diagnostics ==")[1]
        assert "fig04" in section
        assert "694" in section and "9" in section

    def test_wlcrit_section_absent_without_searches(self):
        tel = TelemetrySession()
        tel.count("transient.simulations", 3)
        manifest = build_manifest("figX", "t", make_result(), tel, 1.0)
        assert "wl_crit diagnostics" not in format_diag_report([manifest])
