"""Module-level task functions for the engine tests.

Pool workers pickle task functions by qualified name, so everything a
multi-worker test submits must live in an importable module — closures
and test-class methods only work on the ``jobs=1`` inline path.
"""

from __future__ import annotations

import time

from repro.circuit.dcop import ConvergenceError


def seeded_value(payload, ctx) -> float:
    """Deterministic float from the task's private rng stream."""
    return float(ctx.rng().standard_normal()) + float(payload)


def succeed_on_attempt(payload, ctx) -> float:
    """Raises ConvergenceError until ``ctx.attempt`` reaches ``payload``."""
    if ctx.attempt < int(payload):
        raise ConvergenceError(f"attempt {ctx.attempt} diverged")
    return float(ctx.attempt)


def always_diverges(payload, ctx) -> float:
    raise ConvergenceError("no operating point")


def raises_value_error(payload, ctx) -> float:
    raise ValueError("bad payload")


def busy_sleep(payload, ctx) -> float:
    """Burns wall-clock without returning; only a deadline stops it."""
    deadline = time.monotonic() + float(payload)
    while time.monotonic() < deadline:
        time.sleep(0.01)
    return 0.0


def record_chunk_scales(payload, ctx):
    """Echo chunk task function: every member's scales, in member order."""
    return [list(scales) for _index, _seed, scales in payload[1]]


def sum_scales_chunk(payload, ctx):
    """Fake chunk task function: one ok record per member, valued at the
    sum of its scales (no circuit solving)."""
    return [
        {"index": index, "status": "ok", "value": float(sum(scales)), "attempts": 1}
        for index, _seed, scales in payload[1]
    ]
