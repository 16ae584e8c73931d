"""Differential fuzzer: determinism, clean batches, shrinking, artifacts.

The small batch sizes here keep the suite fast; CI runs the full
200-deck batch through ``scripts/verify_fuzz.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry import core as telemetry
from repro.verify import fuzz


def _rng(root_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, index]))


GOOD_DECK = """* handcrafted inverter
Vvdd vdd 0 DC 0.7
Vin in 0 PULSE(0 0.7 5e-11 1e-10 2e-11)
M0 out in vdd ptfet W=2e-07
M1 out in 0 ntfet W=1e-07
C0 out 0 1e-16
.end
"""

BROKEN_DECK = """* one bad card among good ones
Vvdd vdd 0 DC 0.7
R0 vdd n1 1e4
R1 n1 0 notanumber
C0 n1 0 1e-16
.end
"""


class TestDeterminism:
    def test_same_seed_same_deck(self):
        decks = {fuzz.generate_deck(_rng(3, 17)) for _ in range(3)}
        assert len(decks) == 1

    def test_different_indices_differ(self):
        assert fuzz.generate_deck(_rng(3, 0)) != fuzz.generate_deck(_rng(3, 1))

    def test_check_deck_deterministic(self):
        a = fuzz.check_deck(GOOD_DECK)
        b = fuzz.check_deck(GOOD_DECK)
        assert a.failure == b.failure
        assert a.audits == b.audits
        assert a.nonconverged == b.nonconverged


class TestCheckDeck:
    def test_handcrafted_inverter_is_clean_and_audited(self):
        result = fuzz.check_deck(GOOD_DECK)
        assert result.failure is None
        assert result.audits.get("kcl", 0) > 0
        assert result.audits.get("charge", 0) > 0

    def test_sparse_stages_run_under_the_audits(self):
        # Fuzz decks sit below the auto-sparse threshold; the forced
        # sparse DC and transient stages are their only sparse solves.
        with telemetry.enabled() as tel:
            result = fuzz.check_deck(GOOD_DECK)
        assert result.failure is None
        assert tel.counters.get("mna.sparse_selected", 0) == 2
        assert result.audits.get("jacobian", 0) > 0

    def test_stacked_stage_solves_the_deck_twice_in_one_batch(self):
        with telemetry.enabled() as tel:
            result = fuzz.check_deck(GOOD_DECK)
        assert result.failure is None
        assert tel.counters["batch.runs"] == 1
        assert tel.counters["batch.members"] == 2

    def test_stacked_stage_flags_a_member_that_differs(self, monkeypatch):
        from repro.circuit.batch import MemberOutcome
        from repro.circuit.dcop import ConvergenceError

        real = fuzz.run_generators

        def second_member_fails(gens):
            outcomes = real(gens)
            outcomes[1] = MemberOutcome("error", error=ConvergenceError("injected"))
            return outcomes

        monkeypatch.setattr(fuzz, "run_generators", second_member_fails)
        result = fuzz.check_deck(GOOD_DECK)
        assert result.failure["kind"] == "batch"
        assert "(error) differs from solve_dc (ok)" in result.failure["message"]

    def test_unparseable_deck_reports_parse_failure(self):
        result = fuzz.check_deck(BROKEN_DECK)
        assert result.failure is not None
        assert result.failure["kind"] == "parse"


class TestShrinking:
    def test_shrinks_to_the_offending_card(self):
        minimized = fuzz.shrink_deck(BROKEN_DECK, "parse")
        lines = [
            line
            for line in minimized.strip().splitlines()
            if line and not line.startswith("*") and line.lower() != ".end"
        ]
        assert lines == ["R1 n1 0 notanumber"]
        assert fuzz.check_deck(minimized).failure["kind"] == "parse"


class TestRunFuzz:
    def test_small_batch_is_clean(self):
        report = fuzz.run_fuzz(4, root_seed=7)
        assert report.ok, [f.message for f in report.failures]
        assert report.audits.get("kcl", 0) > 0

    def test_failure_dumps_minimized_reproducer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fuzz, "generate_deck", lambda rng: BROKEN_DECK)
        seen = []
        report = fuzz.run_fuzz(
            1, root_seed=0, out_dir=tmp_path,
            on_progress=lambda done, total, failed: seen.append((done, failed)),
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "parse"
        assert failure.path is not None
        text = (tmp_path / "fuzz_00000_parse.sp").read_text()
        assert "notanumber" in text
        assert text.startswith("* minimal reproducer")
        assert seen == [(1, 1)]
