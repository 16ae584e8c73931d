"""Tests for the engine-backed Monte-Carlo front-end."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.devices.variation import OxideVariation
from repro.engine.jobs import derive_seed
from repro.engine.mc import (
    McMetricSpec,
    MonteCarloBatch,
    chunk_index,
    escalated_transient_options,
    sample_scales,
)
from repro.engine.scheduler import EngineConfig, run_tasks

from engine_helpers import record_chunk_scales


class TestSampleScales:
    def test_deterministic(self):
        v = OxideVariation()
        assert sample_scales(v, 9, 3, 6) == sample_scales(v, 9, 3, 6)

    def test_independent_of_sample_count(self):
        # Scales of sample k never depend on how many samples the run
        # draws — the resume/extend guarantee for Monte-Carlo.
        v = OxideVariation()
        assert [sample_scales(v, 9, k, 6) for k in range(4)] == [
            sample_scales(v, 9, k, 6) for k in range(64)
        ][:4]

    def test_within_variation_band(self):
        v = OxideVariation()
        for k in range(20):
            for scale in sample_scales(v, 1, k, 6):
                assert 0.9 <= scale <= 1.1

    def test_varies_between_samples(self):
        v = OxideVariation()
        assert sample_scales(v, 9, 0, 6) != sample_scales(v, 9, 1, 6)


class TestEscalation:
    def test_first_attempt_uses_experiment_defaults(self):
        assert escalated_transient_options(0) is None

    def test_escalation_is_monotonic(self):
        first = escalated_transient_options(1)
        second = escalated_transient_options(2)
        assert first.solver.max_iterations < second.solver.max_iterations
        assert second.solver.gmin > first.solver.gmin
        assert escalated_transient_options(5) == second  # saturates


class TestMcMetricSpec:
    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            McMetricSpec(metric="snm", beta=1.0)

    def test_spec_is_picklable_and_hashable(self):
        import pickle

        spec = McMetricSpec(metric="drnm", beta=0.6, assist="vgnd_lowering")
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert dataclasses.asdict(spec)["metric"] == "drnm"


class TestMonteCarloBatchTasks:
    """Chunk tasks carry every sample's derived seed and scales."""

    def spec(self):
        return McMetricSpec(metric="drnm", beta=0.6, metric_name="probe")

    def test_tasks_carry_derived_seeds_and_scales(self):
        tasks = MonteCarloBatch(self.spec()).chunk_tasks(
            5, seed=9, config=EngineConfig(), batch_size=1
        )
        assert [t.index for t in tasks] == [chunk_index(k, k + 1) for k in range(5)]
        for k, task in enumerate(tasks):
            spec, entries = task.payload[:2]
            assert spec == self.spec()
            assert entries == (
                (k, derive_seed(9, k), sample_scales(spec.variation, 9, k, 6)),
            )

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            MonteCarloBatch(self.spec()).chunk_tasks(
                0, seed=9, config=EngineConfig(), batch_size=4
            )

    def test_scales_identical_across_jobs(self):
        """The full parallel plumbing hands every worker the same scales
        a serial run would draw (cheap echo task, no circuit solving)."""
        tasks = [
            dataclasses.replace(t, fn=record_chunk_scales)
            for t in MonteCarloBatch(self.spec()).chunk_tasks(
                8, seed=9, config=EngineConfig(), batch_size=3
            )
        ]
        serial = run_tasks(tasks, EngineConfig(jobs=1))
        parallel = run_tasks(tasks, EngineConfig(jobs=4))
        assert serial.values() == parallel.values()
        scales = [s for chunk in serial.values() for s in chunk]
        assert scales == [
            list(sample_scales(self.spec().variation, 9, k, 6)) for k in range(8)
        ]


class TestMonteCarloBatchRun:
    def test_failed_tasks_become_nan_samples(self, monkeypatch):
        from repro.engine import mc

        from engine_helpers import always_diverges

        def diverging_gen(payload, ctx):
            return always_diverges(payload, ctx)
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(mc, "_mc_sample_gen", diverging_gen)
        result = MonteCarloBatch(
            McMetricSpec(metric="drnm", beta=0.6, metric_name="probe")
        ).run(3, seed=9, engine=EngineConfig(retries=0))
        assert np.all(np.isnan(result.samples))
        assert result.report.failed_count == 3
