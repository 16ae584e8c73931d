"""The cell-measurement experiments are point lists plus a table layout.

Each converted experiment hands its points to
:func:`repro.char.query.evaluate_points`, which deduplicates them,
batches them per ``(design, metric)`` and fans the chunks over
``jobs`` workers.  That must be packaging only: every table equals the
one a scalar ``drive(metric_gen(point))`` loop lays out, bit for bit,
at any ``jobs``.
"""

from __future__ import annotations

import pytest

from repro.char.metrics import metric_gen
from repro.char.query import evaluate_points
from repro.circuit.dcop import drive
from repro.engine import mc
from repro.experiments import (
    abl_assist_fraction,
    fig04_cell_stability,
    fig06_write_assist,
    fig07_read_assist,
    fig08_assist_tradeoff,
    fig11_delay,
    fig12_margins,
    table_static_power,
)
from repro.telemetry import core as telemetry

REDUCED = {
    "fig04": (fig04_cell_stability, {"betas": (0.6,)}),
    "fig06": (fig06_write_assist, {"betas": (1.5,)}),
    "fig07": (fig07_read_assist, {"betas": (0.4,)}),
    "fig08": (fig08_assist_tradeoff, {"wa_betas": (1.6,), "ra_betas": (0.5,)}),
    "fig11": (fig11_delay, {"vdds": (0.8,)}),
    "fig12": (fig12_margins, {"vdds": (0.8,)}),
    "tab_power": (table_static_power, {"vdds": (0.8,)}),
    "abl_assist_fraction": (abl_assist_fraction, {"fractions": (0.2,)}),
}


def _scalar_loop(points, **_):
    return [drive(metric_gen(point)) for point in points]


def _bits(result) -> list:
    """The table with every float as its exact hex form."""
    rows = [[v.hex() if isinstance(v, float) else v for v in row] for row in result.rows]
    return [result.header, rows, result.notes]


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_table_equals_the_scalar_point_loop(name, monkeypatch):
    module, kwargs = REDUCED[name]
    batched = [_bits(module.run(jobs=jobs, **kwargs)) for jobs in (1, 2)]
    monkeypatch.setattr(module, "evaluate_points", _scalar_loop)
    scalar = _bits(module.run(**kwargs))
    assert batched == [scalar, scalar]


def test_fig08_evaluates_each_distinct_point_once(monkeypatch):
    """64 points, of which the unassisted DRNM of each WA row and the
    unassisted WL_crit of each RA row recur once per technique."""
    calls = []

    def counting(point, options=None):
        calls.append(point)
        return float(len(calls))
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(mc, "metric_gen", counting)
    points = fig08_assist_tradeoff.points()
    with telemetry.enabled() as tel:
        values = evaluate_points(points)

    assert len(points) == 64
    assert tel.counters["batch.members"] == 40
    assert len(calls) == len(set(calls)) == 40
    value_of = dict(zip(calls, range(1, 41)))
    assert values == [float(value_of[p]) for p in points]
