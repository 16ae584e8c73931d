"""Tests for the chunked (stacked-batch) Monte-Carlo engine path.

``MonteCarloBatch.run(batch_size=K)`` must be a pure packaging change:
same per-sample seeds, scales, values and audit selection as the
scalar task list, with member-level retry/verify semantics preserved
inside each chunk.  The solver-level bit-identity lives in
``tests/circuit/test_batch.py``; here the fakes pin the *engine*
contract — retry ladders, audit mismatches, and whole-chunk failure
expansion — and one small real study closes the end-to-end loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit.dcop import ConvergenceError
from repro.engine import mc
from repro.engine.mc import McMetricSpec, MonteCarloBatch
from repro.engine.scheduler import EngineConfig
from repro.sram import READ_ASSISTS
from repro.telemetry import core as telemetry
from repro.verify.core import VerificationError


def _spec(**overrides) -> McMetricSpec:
    defaults = dict(metric="drnm", beta=0.6, metric_name="probe")
    defaults.update(overrides)
    return McMetricSpec(**defaults)


def _value_gen(payload, ctx):
    """Fake sample generator: deterministic value, no solver work."""
    _, scales = payload
    return float(sum(scales))
    yield  # pragma: no cover - makes this a generator


class TestChunkLayout:
    def test_chunks_cover_every_sample_with_scalar_seeds(self):
        batch = MonteCarloBatch(_spec())
        scalar = batch.tasks(10, seed=7)
        chunks = batch.chunk_tasks(10, seed=7, config=EngineConfig(), batch_size=4)
        assert [t.index for t in chunks] == [0, 1, 2]

        entries = [e for t in chunks for e in t.payload[1]]
        assert [e[0] for e in entries] == list(range(10))
        for task, (index, seed, scales) in zip(scalar, entries):
            assert seed == task.seed
            assert scales == task.payload[1]

    def test_rejects_degenerate_sizes(self):
        batch = MonteCarloBatch(_spec())
        with pytest.raises(ValueError):
            batch.chunk_tasks(0, seed=1, config=EngineConfig(), batch_size=4)
        with pytest.raises(ValueError):
            batch.chunk_tasks(8, seed=1, config=EngineConfig(), batch_size=1)


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

        batch = MonteCarloBatch(_spec())
        batch.run(
            8,
            seed=5,
            engine=EngineConfig(jobs=1, verify_fraction=0.5),
            batch_size=3,
        )
        expected = [
            t.index for t in batch.tasks(8, seed=5) if verify_selected(t.seed, 0.5)
        ]
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


class TestEndToEnd:
    def test_batched_study_bit_identical_to_scalar(self):
        """Real physics, small N: any batch size reproduces scalar bits."""
        spec = _spec()
        scalar = MonteCarloBatch(spec).run(3, seed=5, engine=EngineConfig(jobs=1))
        batched = MonteCarloBatch(spec).run(
            3, seed=5, engine=EngineConfig(jobs=1), batch_size=3
        )
        assert batched.samples.tobytes() == scalar.samples.tobytes()
        assert [o.status for o in batched.report.outcomes] == ["ok"] * 3

    @pytest.mark.parametrize("assist", sorted(READ_ASSISTS))
    def test_batched_drnm_bit_identical_under_each_read_assist(self, assist):
        """The rail assists swap source waveforms; each must batch exactly."""
        spec = _spec(assist=assist)
        scalar = MonteCarloBatch(spec).run(2, seed=11, engine=EngineConfig(jobs=1))
        batched = MonteCarloBatch(spec).run(
            2, seed=11, engine=EngineConfig(jobs=1), batch_size=2
        )
        assert batched.samples.tobytes() == scalar.samples.tobytes()
        assert [o.status for o in batched.report.outcomes] == ["ok"] * 2
