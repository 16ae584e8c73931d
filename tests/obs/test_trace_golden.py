"""Byte-for-byte pins of the ``repro trace`` views.

``golden/trace.json`` is one merged trace, timestamps and all, recorded
once from a traced ``run_tasks`` batch of six tasks: three plain ones,
one real DC solve, one that converges on its retry and one that fails
both attempts.  Each verb's output on it was recorded at the same time.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("verb", ["summary", "timeline", "slowest", "convergence"])
def test_trace_view_is_pinned(verb, capsys):
    assert main(["trace", verb, "--trace", str(GOLDEN / "trace.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"trace_{verb}.txt").read_text()
