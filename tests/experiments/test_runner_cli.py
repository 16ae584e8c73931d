"""Tests for the runner's telemetry options and new CLI flags."""

from __future__ import annotations

import json

import pytest

import repro.experiments.runner as runner
from repro.circuit.dcop import solve_dc
from repro.circuit.netlist import Circuit
from repro.experiments.common import ExperimentResult
from repro.telemetry import core as telemetry


@pytest.fixture(autouse=True)
def _no_leaked_session():
    telemetry.disable()
    yield
    telemetry.disable()


def fake_run(gain: float = 2.0) -> ExperimentResult:
    """A registry-shaped experiment that performs one real DC solve."""
    c = Circuit()
    c.add_voltage_source("v1", "in", "0", 1.0)
    c.add_resistor("in", "out", 1e3)
    c.add_resistor("out", "0", 1e3)
    op = solve_dc(c)
    result = ExperimentResult("fake", "fake experiment", ["gain", "v(out)"])
    result.add_row(gain, gain * op.voltage("out"))
    return result


@pytest.fixture
def fake_registry(monkeypatch):
    monkeypatch.setitem(runner.REGISTRY, "fake", (fake_run, "fake experiment"))


class TestRunExperiment:
    def test_plain_run_leaves_telemetry_off(self, fake_registry):
        result = runner.run_experiment("fake")
        assert result.column("v(out)") == [pytest.approx(1.0, rel=1e-6)]
        assert telemetry.active() is None

    def test_kwargs_forwarded_to_experiment(self, fake_registry):
        result = runner.run_experiment("fake", gain=3.0)
        assert result.column("gain") == [3.0]

    def test_profile_writes_manifest_with_solver_counters(
        self, fake_registry, tmp_path
    ):
        runner.run_experiment("fake", profile=True, output_dir=tmp_path)
        manifest = json.loads((tmp_path / "fake_manifest.json").read_text())
        assert manifest["experiment_id"] == "fake"
        counters = manifest["telemetry"]["counters"]
        assert counters["dcop.solves"] == 1
        assert counters["dcop.converged.cold_start"] == 1
        assert counters["newton.iterations"] >= 1
        assert "span.experiment.fake" in manifest["telemetry"]["timers"]
        assert manifest["wall_time_s"] > 0.0
        assert len(manifest["result"]["checksum_sha256"]) == 64
        # The session is torn down after the run.
        assert telemetry.active() is None

    def test_trace_written(self, fake_registry, tmp_path):
        # The one trace file holds the runner session's events beside
        # its spans, and the manifest joins it by trace id.
        trace_dir = tmp_path / "trace"
        runner.run_experiment(
            "fake", trace_dir=trace_dir, log_level="debug", output_dir=tmp_path
        )
        payload = json.loads((trace_dir / "trace.json").read_text())
        assert payload["schema"] == "repro.obs.trace/v1"
        names = [e["name"] for e in payload["events"]]
        assert "dcop.converged" in names
        assert "span.begin" not in names and "span.end" not in names
        assert [s["name"] for s in payload["spans"]].count("experiment.fake") == 1
        manifest = json.loads((tmp_path / "fake_manifest.json").read_text())
        assert payload["trace_ids"] == [manifest["trace_id"]]
        assert manifest["telemetry"]["counters"]["newton.solves"] >= 1

    def test_instrumented_run_writes_one_rollup(self, fake_registry, tmp_path):
        runner.run_experiment("fake", profile=True, output_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fake.json", "fake_manifest.json", "fake_manifest.prom",
        ]
        prom = (tmp_path / "fake_manifest.prom").read_text()
        assert 'repro_dcop_solves_total{run="fake"} 1' in prom

    def test_output_dir_saves_result_json(self, fake_registry, tmp_path):
        out = tmp_path / "nested"
        runner.run_experiment("fake", output_dir=out)
        saved = json.loads((out / "fake.json").read_text())
        assert saved["experiment_id"] == "fake"
        # No manifest without telemetry options.
        assert not (out / "fake_manifest.json").exists()

    def test_unknown_id_still_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            runner.run_experiment("fig99")


def fake_sampling_run(
    samples: int = 4,
    seed: int = 0,
    jobs: int = 1,
    resume: bool = False,
    checkpoint_dir=None,
) -> ExperimentResult:
    """Registry-shaped stand-in for an engine-backed sampling experiment."""
    result = ExperimentResult("fakemc", "fake sampling", ["samples", "seed", "jobs"])
    result.add_row(samples, seed, jobs)
    result.notes.append(f"checkpoint_dir={checkpoint_dir} resume={resume}")
    return result


@pytest.fixture
def sampling_registry(monkeypatch):
    monkeypatch.setitem(
        runner.REGISTRY, "fakemc", (fake_sampling_run, "fake sampling")
    )


class TestTraceDirPerExperiment:
    def test_single_run_uses_the_directory_itself(self):
        assert runner._trace_dir_for("d", "fig02", multi=False) == "d"

    def test_none_stays_none(self):
        assert runner._trace_dir_for(None, "fig02", multi=True) is None

    def test_all_run_writes_one_trace_per_experiment(
        self, monkeypatch, tmp_path
    ):
        # Regression: `all` used to leave only the last experiment's
        # trace; each experiment gets its own subdirectory.
        monkeypatch.setattr(
            runner,
            "REGISTRY",
            {"fake_a": (fake_run, "a"), "fake_b": (fake_run, "b")},
        )
        trace_dir = tmp_path / "traces"
        assert (
            runner.main(
                ["all", "--trace-dir", str(trace_dir), "--output-dir", str(tmp_path)]
            )
            == 0
        )
        assert not (trace_dir / "trace.json").exists()
        for experiment_id in ("fake_a", "fake_b"):
            trace = json.loads((trace_dir / experiment_id / "trace.json").read_text())
            names = [s["name"] for s in trace["spans"]]
            assert names.count(f"experiment.{experiment_id}") == 1
            assert len(trace["spans"]) == 2  # the experiment span + its dcop span


class TestEngineFlagPlumbing:
    def test_engine_flags_forwarded(self, sampling_registry, tmp_path, capsys):
        assert (
            runner.main(
                [
                    "fakemc",
                    "--samples", "8",
                    "--seed", "3",
                    "--jobs", "2",
                    "--output-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "8" in out and "3" in out and "2" in out
        # The runner always points engine-backed runs at checkpoints
        # under the output directory so ^C runs are resumable.
        assert f"checkpoint_dir={tmp_path}/checkpoints" in out

    def test_non_sampling_experiment_ignores_flags_with_note(
        self, fake_registry, tmp_path, capsys
    ):
        assert (
            runner.main(
                ["fake", "--samples", "8", "--output-dir", str(tmp_path)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "does not take --samples" in captured.err
        assert "fake experiment" in captured.out


class TestOneFlagSurface:
    """`repro experiment` is the runner's own parser, not a copy of it."""

    @pytest.mark.parametrize("entry", ["runner", "cli"])
    def test_batch_size_flag_is_gone(self, sampling_registry, capsys, entry):
        """``--batch-size`` exits 2 from ``python -m repro.experiments``
        and from ``repro experiment``: chunking is derived, not a flag."""
        from repro.cli import main

        def run(argv):
            if entry == "cli":
                return main(["experiment", *argv])
            return runner.main(argv)

        with pytest.raises(SystemExit) as excinfo:
            run(["fakemc", "--batch-size", "4", "--samples", "8"])
        assert excinfo.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_cli_list_prints_registry(self, sampling_registry, capsys):
        from repro.cli import main

        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fakemc" in out and "fake sampling" in out
        assert "DRNM and WL_crit vs beta" in out

    def test_both_entry_points_take_the_same_options(self, capsys):
        import re

        from repro.cli import main

        def options(entry) -> set[str]:
            with pytest.raises(SystemExit) as excinfo:
                entry(["--help"])
            assert excinfo.value.code == 0
            help_text = capsys.readouterr().out
            return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text))

        direct = options(runner.main)
        via_cli = options(lambda argv: main(["experiment", *argv]))
        assert via_cli == direct
        assert {"--list", "--samples", "--jobs", "--char-store"} <= direct
        assert "--batch-size" not in direct

    def test_cli_errors_name_the_cli_verb(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--samples", "many"])
        assert excinfo.value.code == 2
        assert "repro experiment: error:" in capsys.readouterr().err


class TestMainFlags:
    def test_list_prints_registry(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out
        assert "DRNM and WL_crit vs beta" in out

    def test_missing_experiment_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            runner.main([])
        assert "required unless --list" in capsys.readouterr().err

    def test_profile_run_prints_manifest_path(
        self, fake_registry, tmp_path, capsys
    ):
        assert (
            runner.main(
                ["fake", "--profile", "--output-dir", str(tmp_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fake experiment" in out
        assert "fake_manifest.json" in out
        assert (tmp_path / "fake_manifest.json").exists()
        assert (tmp_path / "fake.json").exists()


class TestVerifyFlag:
    def test_verify_run_audits_and_prints_summary(self, fake_registry, capsys):
        from repro.verify import core as verify

        result = runner.run_experiment("fake", verify_run=True)
        assert result.column("gain") == [2.0]
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert "kcl=" in err
        assert "0 violations" in err
        # The session is torn down after the run.
        assert verify.active() is None

    def test_empty_session_notes_worker_scoped_counts(
        self, monkeypatch, capsys
    ):
        # A zero-audit session (no in-process solving, or an engine run
        # at jobs > 1 auditing inside the forked workers) must say why
        # instead of printing a bare zero.
        monkeypatch.setitem(
            runner.REGISTRY,
            "noop",
            (lambda: ExperimentResult("noop", "noop", ["x"]), "noop"),
        )
        runner.run_experiment("noop", verify_run=True)
        err = capsys.readouterr().err
        assert "0 audits" in err
        assert "workers audit" in err

    def test_cli_flag_reaches_the_session(self, fake_registry, capsys):
        assert runner.main(["fake", "--verify"]) == 0
        captured = capsys.readouterr()
        assert "verify:" in captured.err
        assert "0 violations" in captured.err

    def test_plain_run_leaves_verify_off(self, fake_registry):
        from repro.verify import core as verify

        runner.run_experiment("fake")
        assert verify.active() is None
