"""Tests for the top-level command-line interface."""

from __future__ import annotations

import math

import pytest

from repro.cli import main


class TestDeviceInfo:
    def test_prints_anchors(self, capsys):
        assert main(["device-info"]) == 0
        out = capsys.readouterr().out
        assert "1.000e-04" in out
        assert "1.000e-17" in out
        assert "MOSFET" in out


class TestCell:
    def test_proposed_cell_report(self, capsys):
        assert main(["cell", "proposed", "--vdd", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "hold power" in out
        assert "WL_crit" in out
        assert "read assist" in out

    def test_asym_wlcrit_undefined(self, capsys):
        assert main(["cell", "asym"]) == 0
        assert "undefined (no separatrix)" in capsys.readouterr().out

    def test_unknown_cell_rejected(self):
        with pytest.raises(SystemExit):
            main(["cell", "nonsense"])

    def test_corner_flag_annotates_report(self, capsys):
        assert main(["cell", "proposed", "--corner", "ss"]) == 0
        assert "[ss corner]" in capsys.readouterr().out

    def test_unknown_corner_lists_known_names(self, capsys):
        assert main(["cell", "proposed", "--corner", "zz"]) == 2
        err = capsys.readouterr().err
        assert "zz" in err
        for name in ("ff", "fs", "sf", "ss", "tt"):
            assert name in err

    def test_cmos_rejects_non_nominal_corner(self, capsys):
        assert main(["cell", "cmos", "--corner", "ff"]) == 2
        assert "CMOS" in capsys.readouterr().err

    @pytest.mark.parametrize("design", ["proposed", "cmos", "asym", "7t", "outward_n"])
    def test_prints_the_registry_measurements(self, design, capsys):
        """Every printed number is `evaluate_metric`'s, as the store serves it."""
        from repro.char.designs import DESIGNS
        from repro.char.metrics import evaluate_metric

        vdd = 0.8
        assert main(["cell", design, "--vdd", str(vdd)]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            key, value = line.split(":", 1)
            printed[key.strip()] = value.replace("(with read assist)", "").strip()

        def ps(metric):
            value = evaluate_metric(metric, design, vdd)
            return "inf" if math.isinf(value) else f"{value * 1e12:.1f} ps"

        expected = {
            "hold power": f"{evaluate_metric('hold_power', design, vdd):.3e} W",
            "DRNM": f"{evaluate_metric('drnm', design, vdd) * 1e3:.1f} mV",
            "WL_crit": (
                ps("wl_crit") if "wl_crit" in DESIGNS[design].metrics
                else "undefined (no separatrix)"
            ),
            "write delay": ps("write_delay"),
            "read delay": ps("read_delay"),
        }
        assert {key: printed[key] for key in expected} == expected

    def test_accepts_every_registry_design(self, capsys):
        from repro.char.designs import DESIGNS

        with pytest.raises(SystemExit):
            main(["cell", "--help"])
        usage = capsys.readouterr().out
        for name in DESIGNS:
            assert name in usage


class TestExperiment:
    def test_delegates_to_runner(self, capsys):
        assert main(["experiment", "tab_area"]) == 0
        assert "7T" in capsys.readouterr().out


class TestExperimentTelemetryFlags:
    def test_profile_flags_forwarded(self, tmp_path, capsys):
        assert (
            main(
                [
                    "experiment",
                    "tab_area",
                    "--profile",
                    "--trace-dir",
                    str(tmp_path / "trace"),
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tab_area_manifest.json" in out
        assert (tmp_path / "tab_area_manifest.json").exists()
        assert (tmp_path / "tab_area_manifest.prom").exists()
        assert (tmp_path / "trace" / "trace.json").exists()
        assert not list(tmp_path.glob("*_metrics.*"))

    def test_trace_path_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "tab_area", "--trace", "t.json"])
        assert excinfo.value.code == 2


class TestDiag:
    def test_summarizes_manifests(self, tmp_path, capsys):
        assert main(["experiment", "tab_area", "--profile",
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["diag", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "solver diagnostics" in out
        assert "tab_area" in out

    def test_empty_directory_fails_with_hint(self, tmp_path, capsys):
        assert main(["diag", str(tmp_path)]) == 1
        assert "no run manifests" in capsys.readouterr().out


class TestNetlist:
    def test_op_analysis(self, tmp_path, capsys):
        deck = tmp_path / "div.sp"
        deck.write_text("* divider\nV1 in 0 1.0\nR1 in mid 1k\nR2 mid 0 1k\n.end\n")
        assert main(["netlist", str(deck)]) == 0
        out = capsys.readouterr().out
        assert "v(mid) = +0.500000 V" in out

    def test_transient(self, tmp_path, capsys):
        deck = tmp_path / "rc.sp"
        deck.write_text("V1 in 0 PULSE(0 1 0.1n 100n)\nR1 in out 1k\nC1 out 0 10f\n")
        assert main(["netlist", str(deck), "--tran", "1e-9"]) == 0
        out = capsys.readouterr().out
        assert "transient" in out
        assert "v(out) final" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCharStatusJson:
    def test_empty_store_reports_coverage(self, tmp_path, capsys):
        import json

        assert main(
            ["char", "status", "--spec", "nominal", "--store", str(tmp_path),
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "nominal"
        assert payload["present"] == 0
        assert payload["missing"] == payload["total"] > 0
        assert payload["store"] == str(tmp_path)
        assert payload["index"]["entries"] == 0

    def test_plain_output_unchanged(self, tmp_path, capsys):
        assert main(
            ["char", "status", "--spec", "nominal", "--store", str(tmp_path)]
        ) == 0
        assert "entries present" in capsys.readouterr().out


class TestServeCLIOffline:
    def test_status_without_a_daemon_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "no-daemon.sock"
        assert main(["serve", "status", "--socket", str(missing)]) == 2
        assert "cannot reach a serve daemon" in capsys.readouterr().err

    def test_query_without_a_daemon_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "no-daemon.sock"
        assert main(
            ["serve", "query", "hold_power", "--design", "cmos", "--vdd", "0.6",
             "--socket", str(missing)]
        ) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_start_rejects_unknown_spec(self, tmp_path, capsys):
        assert main(
            ["serve", "start", "--spec", "made-up",
             "--socket", str(tmp_path / "s.sock"), "--store", str(tmp_path)]
        ) == 2
        assert "unknown spec" in capsys.readouterr().err

    def test_start_rejects_bad_jobs_before_serving(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.serve.daemon as daemon_module

        def never(config):
            raise AssertionError("daemon started with an invalid config")

        monkeypatch.setattr(daemon_module, "serve", never)
        assert main(
            ["serve", "start", "--jobs", "0",
             "--socket", str(tmp_path / "s.sock"), "--store", str(tmp_path)]
        ) == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_start_accepts_only_one_worker(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "start", "--workers", "2",
                  "--socket", str(tmp_path / "s.sock"), "--store", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_status_does_not_import_the_experiment_registry(self, tmp_path):
        """Only `repro experiment` may pay for the registry import; the
        serve daemon starts through this same entry point."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "status", "--socket", str(tmp_path / "missing.sock")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines() if "|" in line}
        assert "repro.cli" in imported
        assert "repro.experiments.runner" not in imported


class TestArrayCLI:
    def test_build_prints_structure(self, capsys):
        assert main(["array", "build", "--rows", "8", "--columns", "2"]) == 0
        out = capsys.readouterr().out
        assert "unknowns" in out
        assert "census" in out
        assert "replica" in out

    def test_measure_half_select_with_profile_manifest(self, tmp_path, capsys):
        code = main(
            ["array", "measure", "--rows", "4", "--columns", "2",
             "--scenario", "half_select", "--profile",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "disturb margin" in out
        assert (tmp_path / "array_measure_manifest.json").exists()
        assert main(["diag", str(tmp_path)]) == 0
        assert "array_measure" in capsys.readouterr().out

    def test_sense_none_skips_the_sense_amp(self, capsys):
        assert main(
            ["array", "build", "--rows", "4", "--columns", "2",
             "--sense", "none"]
        ) == 0
        assert "replica" not in capsys.readouterr().out

    def test_corner_error_reported(self, capsys):
        assert main(
            ["array", "build", "--design", "cmos", "--corner", "ss"]
        ) == 2
        assert "corner" in capsys.readouterr().err

    def test_sweep_checkpoints_and_resumes(self, tmp_path, capsys):
        argv = ["array", "sweep", "--rows-list", "4", "--columns", "2",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "4" in capsys.readouterr().out
        assert (tmp_path / "checkpoints" / "array_sweep.jsonl").exists()
        assert main(argv + ["--resume"]) == 0
        assert "1 resumed" in capsys.readouterr().out

    def test_bad_rows_list_is_an_error(self, capsys):
        assert main(["array", "sweep", "--rows-list", "4,x"]) == 2
        assert "rows-list" in capsys.readouterr().err

    def test_resume_with_other_rows_measures_the_new_geometry(
        self, tmp_path, capsys
    ):
        """Tasks are keyed by row count: a 4-row checkpoint is not replayed
        as the 16-row point, and a later 4,16 resume replays the 4 only."""
        def sweep(directory, rows_list, *extra):
            assert main(["array", "sweep", "--rows-list", rows_list,
                         "--columns", "2", "--output-dir", str(directory),
                         *extra]) == 0
            summary, *table = capsys.readouterr().out.splitlines()
            return summary, table

        sweep(tmp_path / "a", "4")
        summary, resumed = sweep(tmp_path / "a", "16", "--resume")
        assert "0 resumed" in summary
        _, fresh = sweep(tmp_path / "b", "16")
        assert resumed == fresh

        sweep(tmp_path / "c", "4")
        summary, table = sweep(tmp_path / "c", "4,16", "--resume")
        assert "1 resumed" in summary
        assert table[2] == fresh[1]

    def test_position_keyed_checkpoint_is_an_error(self, tmp_path, capsys):
        """A checkpoint keyed by list position cannot be replayed."""
        import json

        checkpoint = tmp_path / "checkpoints" / "array_sweep.jsonl"
        checkpoint.parent.mkdir(parents=True)
        checkpoint.write_text(json.dumps({
            "schema": "repro.engine.checkpoint/v1",
            "run_key": "array_proposed_read_2x@0.8",
            "root_seed": 0,
        }) + "\n")
        assert main(["array", "sweep", "--rows-list", "4", "--columns", "2",
                     "--output-dir", str(tmp_path), "--resume"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "belongs to run" in err[0]

    def test_duplicate_row_count_is_an_error(self, tmp_path, capsys):
        assert main(["array", "sweep", "--rows-list", "4,8,4", "--columns", "2",
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "duplicate row count" in err[0]
