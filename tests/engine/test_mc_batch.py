"""Tests for the chunked (stacked-batch) Monte-Carlo engine path.

``MonteCarloBatch.run`` solves every study as chunks of samples, each
one stacked Newton batch.  That must be a pure packaging change: the
per-sample seeds, scales, values and audit selection are those of the
scalar :func:`~repro.engine.mc.evaluate_mc_sample`, with member-level
retry/verify semantics preserved inside each chunk.  The solver-level
bit-identity lives in ``tests/circuit/test_batch.py``; here the fakes
pin the *engine* contract — chunk sizing and identity, retry ladders,
audit mismatches, whole-chunk failure expansion, resume — and small
real studies close the end-to-end loop against the scalar path.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.circuit.dcop import ConvergenceError
from repro.engine import mc
from repro.engine.checkpoint import CheckpointLog, CheckpointMismatch
from repro.engine.jobs import TaskContext, TaskOutcome, derive_seed
from repro.engine.mc import (
    McMetricSpec,
    MonteCarloBatch,
    chunk_index,
    evaluate_mc_sample,
    sample_scales,
)
from repro.engine.scheduler import EngineConfig
from repro.sram import READ_ASSISTS
from repro.telemetry import core as telemetry

from engine_helpers import sum_scales_chunk


def _spec(**overrides) -> McMetricSpec:
    defaults = dict(metric="drnm", beta=0.6, metric_name="probe")
    defaults.update(overrides)
    return McMetricSpec(**defaults)


def _value_gen(payload, ctx):
    """Fake sample generator: deterministic value, no solver work."""
    _, scales = payload
    return float(sum(scales))
    yield  # pragma: no cover - makes this a generator


def _scalar_reference(spec: McMetricSpec, count: int, seed: int) -> list[float]:
    """Each sample on the scalar path, one call per sample."""
    return [
        evaluate_mc_sample(
            (spec, sample_scales(spec.variation, seed, k, spec.transistor_count)),
            TaskContext(index=k, seed=derive_seed(seed, k)),
        )
        for k in range(count)
    ]


def _same_bits(values, reference) -> bool:
    return (
        np.asarray(values, dtype=float).tobytes()
        == np.asarray(reference, dtype=float).tobytes()
    )


class TestChunkLayout:
    def test_chunks_cover_every_sample_with_scalar_seeds(self):
        batch = MonteCarloBatch(_spec())
        chunks = batch.chunk_tasks(10, seed=7, config=EngineConfig(), batch_size=4)
        assert [t.index for t in chunks] == [
            chunk_index(0, 4), chunk_index(4, 8), chunk_index(8, 10)
        ]

        entries = [e for t in chunks for e in t.payload[1]]
        assert [e[0] for e in entries] == list(range(10))
        for k, (index, seed, scales) in enumerate(entries):
            assert seed == derive_seed(7, k)
            assert scales == sample_scales(_spec().variation, 7, k, 6)

    def test_rejects_degenerate_sizes(self):
        batch = MonteCarloBatch(_spec())
        with pytest.raises(ValueError):
            batch.chunk_tasks(0, seed=1, config=EngineConfig(), batch_size=4)
        with pytest.raises(ValueError):
            batch.chunk_tasks(8, seed=1, config=EngineConfig(), batch_size=0)
        singles = batch.chunk_tasks(3, seed=1, config=EngineConfig(), batch_size=1)
        assert [len(t.payload[1]) for t in singles] == [1, 1, 1]

    def test_chunk_index_is_one_integer_per_member_range(self):
        ranges = [(lo, hi) for hi in range(1, 41) for lo in range(hi)]
        assert len({chunk_index(lo, hi) for lo, hi in ranges}) == len(ranges)


class TestDerivedChunkSize:
    @pytest.mark.parametrize(
        "jobs, samples, expected",
        [
            (1, 3, [3]),
            (1, 40, [14, 14, 12]),
            (2, 3, [2, 1]),
            (2, 10, [5, 5]),
            (2, 40, [10, 10, 10, 10]),
        ],
    )
    def test_run_derives_chunk_size(self, monkeypatch, jobs, samples, expected):
        """No batch_size: jobs * ceil(samples / (16 jobs)) chunks, as
        even as the sample count allows."""
        sizes = []
        real_run_tasks = mc.run_tasks

        def spy(tasks, config):
            sizes.extend(len(t.payload[1]) for t in tasks)
            return real_run_tasks(
                [dataclasses.replace(t, fn=sum_scales_chunk) for t in tasks], config
            )

        monkeypatch.setattr(mc, "run_tasks", spy)
        result = MonteCarloBatch(_spec()).run(
            samples, seed=3, engine=EngineConfig(jobs=jobs)
        )

        assert sizes == expected
        assert result.samples.tolist() == [
            float(sum(sample_scales(_spec().variation, 3, k, 6)))
            for k in range(samples)
        ]


class TestChunkSemantics:
    def test_retryable_member_falls_back_to_scalar_path(self, monkeypatch):
        calls = []

        def flaky_gen(payload, ctx):
            if ctx.index == 1:
                raise ConvergenceError("batch member diverged")
            return 1.5
            yield  # pragma: no cover

        def scalar_fallback(payload, ctx):
            calls.append((ctx.index, ctx.attempt))
            return 7.25

        monkeypatch.setattr(mc, "_mc_sample_gen", flaky_gen)
        monkeypatch.setattr(mc, "evaluate_mc_sample", scalar_fallback)

        with telemetry.enabled() as tel:
            result = MonteCarloBatch(_spec()).run(
                3, seed=5, engine=EngineConfig(jobs=1, retries=2), batch_size=3
            )
            counters = dict(tel.counters)

        assert result.samples.tolist() == [1.5, 7.25, 1.5]
        retried = next(o for o in result.report.outcomes if o.index == 1)
        assert retried.status == "ok"
        assert retried.attempts == 2
        assert calls == [(1, 1)]  # scalar escalation started at attempt 1
        assert counters["engine.convergence_errors"] == 1
        assert counters["engine.retries"] == 1
        assert counters["batch.member_retries"] == 1

    def test_retry_exhaustion_records_member_failure(self, monkeypatch):
        def always_diverges(payload, ctx):
            raise ConvergenceError("no operating point")
            yield  # pragma: no cover

        monkeypatch.setattr(mc, "_mc_sample_gen", always_diverges)
        monkeypatch.setattr(
            mc,
            "evaluate_mc_sample",
            lambda payload, ctx: (_ for _ in ()).throw(
                ConvergenceError("still diverging")
            ),
        )

        with telemetry.enabled() as tel:
            result = MonteCarloBatch(_spec()).run(
                2, seed=5, engine=EngineConfig(jobs=1, retries=1), batch_size=2
            )
            counters = dict(tel.counters)

        assert result.failure_count == 2
        assert all(math.isnan(v) for v in result.samples)
        for outcome in result.report.outcomes:
            assert outcome.status == "failed"
            assert outcome.error_type == "ConvergenceError"
            assert outcome.attempts == 2  # attempt 0 batched + 1 scalar retry
        assert counters["batch.member_failures"] == 2
        # One convergence error per failed attempt, including the last.
        assert counters["engine.convergence_errors"] == 4

    def test_audit_mismatch_fails_the_member(self, monkeypatch):
        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)
        monkeypatch.setattr(mc, "evaluate_mc_sample", lambda p, c: -1.0)

        result = MonteCarloBatch(_spec()).run(
            3,
            seed=5,
            engine=EngineConfig(jobs=1, verify_fraction=1.0),
            batch_size=3,
        )

        assert result.failure_count == 3
        for outcome in result.report.outcomes:
            assert outcome.status == "failed"
            assert outcome.error_type == "VerificationError"
            assert "disagrees with the scalar path" in outcome.error

    def test_audit_agreement_passes_and_counts(self, monkeypatch):
        def scalar_twin(payload, ctx):
            _, scales = payload
            return float(sum(scales))

        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)
        monkeypatch.setattr(mc, "evaluate_mc_sample", scalar_twin)

        with telemetry.enabled() as tel:
            result = MonteCarloBatch(_spec()).run(
                4,
                seed=5,
                engine=EngineConfig(jobs=1, verify_fraction=1.0),
                batch_size=2,
            )
            counters = dict(tel.counters)

        assert result.failure_count == 0
        assert counters["verify.audited_tasks"] == 4

    def test_audit_selection_matches_scalar_engine(self, monkeypatch):
        """verify_fraction draws the same member subset at any batch size."""
        from repro.engine.worker import verify_selected

        audited = []

        def tracking_scalar(payload, ctx):
            audited.append(ctx.index)
            _, scales = payload
            return float(sum(scales))

        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)
        monkeypatch.setattr(mc, "evaluate_mc_sample", tracking_scalar)

        MonteCarloBatch(_spec()).run(
            8,
            seed=5,
            engine=EngineConfig(jobs=1, verify_fraction=0.5),
            batch_size=3,
        )
        expected = [k for k in range(8) if verify_selected(derive_seed(5, k), 0.5)]
        assert audited == expected
        assert 0 < len(expected) < 8  # the draw actually split the set

    def test_dead_chunk_expands_to_per_sample_failures(self, monkeypatch):
        real_chunk = mc.evaluate_mc_chunk

        def dying_chunk(payload, ctx):
            if payload[1][0][0] == 2:  # the chunk starting at sample 2
                raise RuntimeError("worker exploded")
            return real_chunk(payload, ctx)

        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)
        monkeypatch.setattr(mc, "evaluate_mc_chunk", dying_chunk)

        result = MonteCarloBatch(_spec()).run(
            5, seed=5, engine=EngineConfig(jobs=1), batch_size=2
        )

        assert [o.index for o in result.report.outcomes] == list(range(5))
        by_index = {o.index: o for o in result.report.outcomes}
        assert [by_index[k].status for k in range(5)] == [
            "ok", "ok", "failed", "failed", "ok"
        ]
        for k in (2, 3):
            assert by_index[k].error_type == "RuntimeError"
        assert math.isnan(result.samples[2]) and math.isnan(result.samples[3])


    def test_outcomes_must_cover_every_sample(self, monkeypatch):
        real_chunk = mc.evaluate_mc_chunk

        def lossy_chunk(payload, ctx):
            return real_chunk(payload, ctx)[:-1]  # drops its last member

        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)
        monkeypatch.setattr(mc, "evaluate_mc_chunk", lossy_chunk)

        with pytest.raises(RuntimeError, match="exactly once"):
            MonteCarloBatch(_spec()).run(
                4, seed=5, engine=EngineConfig(jobs=1), batch_size=2
            )


class TestResume:
    def _config(self, path, resume=False) -> EngineConfig:
        return EngineConfig(
            jobs=1, checkpoint_path=path, run_key="study", root_seed=5, resume=resume
        )

    def test_extended_resume_equals_uninterrupted_run(self, tmp_path, monkeypatch):
        """A 3-sample checkpoint resumed as 4 samples: the full chunk
        [0, 2) is replayed, the partial chunk [2, 3) is not taken for
        [2, 4), and every value equals an uninterrupted run's."""
        spec = _spec(assist="vgnd_lowering")
        path = tmp_path / "study.jsonl"
        batch = MonteCarloBatch(spec)
        batch.run(3, seed=5, engine=self._config(path), batch_size=2)

        computed = []
        real_chunk = mc.evaluate_mc_chunk

        def recording_chunk(payload, ctx):
            computed.append([entry[0] for entry in payload[1]])
            return real_chunk(payload, ctx)

        monkeypatch.setattr(mc, "evaluate_mc_chunk", recording_chunk)
        resumed = batch.run(
            4, seed=5, engine=self._config(path, resume=True), batch_size=2
        )
        monkeypatch.undo()

        uninterrupted = batch.run(4, seed=5, engine=EngineConfig(), batch_size=2)
        assert computed == [[2, 3]]
        assert resumed.report.resumed_count == 1
        assert [o.index for o in resumed.report.outcomes] == [0, 1, 2, 3]
        assert resumed.samples.tobytes() == uninterrupted.samples.tobytes()

    def test_resume_drops_superseded_chunks(self, tmp_path, monkeypatch):
        """A 3-sample study in chunks of 2, resumed twice as 4 samples:
        the log keeps the chunks [0, 2) and [2, 4), not the superseded
        [2, 3), and the values equal an uninterrupted run's."""
        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)
        path = tmp_path / "study.jsonl"
        batch = MonteCarloBatch(_spec())

        def logged():
            lines = path.read_text().splitlines()[1:]  # after the header
            return sorted(json.loads(line)["index"] for line in lines)

        batch.run(3, seed=5, engine=self._config(path), batch_size=2)
        assert logged() == [chunk_index(0, 2), chunk_index(2, 3)]
        for _ in range(2):
            resumed = batch.run(
                4, seed=5, engine=self._config(path, resume=True), batch_size=2
            )
            assert logged() == [chunk_index(0, 2), chunk_index(2, 4)]
        uninterrupted = batch.run(4, seed=5, engine=EngineConfig(), batch_size=2)
        assert resumed.samples.tobytes() == uninterrupted.samples.tobytes()

    @pytest.mark.parametrize("old_key", ["study", "study:bs=2"])
    def test_checkpoint_of_another_layout_raises(self, tmp_path, monkeypatch, old_key):
        """Per-sample (plain key) and ``:bs=K`` checkpoints are refused."""
        path = tmp_path / "study.jsonl"
        with CheckpointLog(path, old_key, 5) as log:
            log.open_fresh()
            log.append(TaskOutcome(index=1, status="ok", value=0.5))
        monkeypatch.setattr(mc, "_mc_sample_gen", _value_gen)

        with pytest.raises(CheckpointMismatch):
            MonteCarloBatch(_spec()).run(
                2, seed=5, engine=self._config(path, resume=True), batch_size=2
            )


class TestEndToEnd:
    def test_batched_study_bit_identical_to_scalar(self):
        """Real physics, small N: the derived chunking reproduces the
        scalar path's bits, sample by sample."""
        spec = _spec()
        batched = MonteCarloBatch(spec).run(3, seed=5, engine=EngineConfig(jobs=1))
        assert _same_bits(batched.samples, _scalar_reference(spec, 3, seed=5))
        assert [o.status for o in batched.report.outcomes] == ["ok"] * 3

    def test_batched_wlcrit_bit_identical_to_scalar(self):
        spec = _spec(metric="wlcrit", wlcrit_upper_bound=8e-9, metric_name="WLcrit")
        batched = MonteCarloBatch(spec).run(2, seed=5, engine=EngineConfig(jobs=1))
        assert _same_bits(batched.samples, _scalar_reference(spec, 2, seed=5))
        assert [o.status for o in batched.report.outcomes] == ["ok"] * 2

    def test_chunks_of_one_equal_the_scalar_path(self):
        spec = _spec()
        single = MonteCarloBatch(spec).run(
            2, seed=5, engine=EngineConfig(jobs=1), batch_size=1
        )
        assert _same_bits(single.samples, _scalar_reference(spec, 2, seed=5))

    @pytest.mark.parametrize("assist", sorted(READ_ASSISTS))
    def test_batched_drnm_bit_identical_under_each_read_assist(self, assist):
        """The rail assists swap source waveforms; each must batch exactly."""
        spec = _spec(assist=assist)
        batched = MonteCarloBatch(spec).run(
            2, seed=11, engine=EngineConfig(jobs=1), batch_size=2
        )
        assert _same_bits(batched.samples, _scalar_reference(spec, 2, seed=11))
        assert [o.status for o in batched.report.outcomes] == ["ok"] * 2
