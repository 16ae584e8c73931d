"""Gate: the precompiled SPICE hot path is >= 2x the seed on fig04-class work.

The workload is the cell-stability inner loop (the repo's dominant
cost): a write transient and a read-disturb transient on a 6T TFET
cell — the same simulations a fig04 DRNM/WL_crit point runs dozens of
times.  Two configurations are timed on this machine, in this process:

* **baseline** — the seed hot path, reconstructed exactly: the
  loop-based :class:`ReferenceMnaSystem` swapped into the solver and
  integrator, the seed table-evaluation kernel
  (``CubicTable2D.reference_evaluation``), Jacobian reuse off (full
  re-stamp + factorization every Newton iteration), and the transient
  predictor off (each step seeds Newton from the last accepted point);
* **optimized** — the shipped defaults: precompiled stamping, LU
  reuse, linear extrapolation predictor.

Measuring both in-process makes the >= 2x gate portable: it compares
algorithms, not machines.  The two configurations run in alternation,
``REPEATS`` times each, and each keeps its best time: a workload of a
few hundred milliseconds is short next to the minutes over which a
shared host's speed drifts, so alternating puts both sides under the
same drift, and the best of several runs discards the repetitions a
neighbour slowed down.  The run also captures the Newton stamp/reuse
split from a telemetry-enabled pass and emits ``BENCH_spice_core.json``
at the repo root for the CI artifact trail.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/test_spice_core.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.circuit import dcop, transient
from repro.circuit.dcop import SolverOptions
from repro.circuit.mna_reference import ReferenceMnaSystem
from repro.circuit.transient import TransientOptions, simulate_transient
from repro.devices.tables import CubicTable2D
from repro.sram import AccessConfig, CellSizing, Tfet6TCell
from repro.telemetry import core as telemetry

SPEEDUP_GATE = 2.0
REPEATS = 7
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_spice_core.json"
VDD = 0.8
SETTLE = 1.0e-9


def _benches():
    cell = Tfet6TCell(CellSizing().with_beta(1.0), access=AccessConfig.INWARD_P)
    return (
        cell.write_testbench(VDD, 2.0e-9),
        cell.read_testbench(VDD),
    )


def workload(options: TransientOptions) -> None:
    for bench in _benches():
        simulate_transient(
            bench.circuit,
            bench.settle_stop(SETTLE),
            initial_conditions=bench.initial_conditions,
            options=options,
        )


SEED_OPTIONS = TransientOptions(
    predictor="none", solver=SolverOptions(jacobian_reuse=False)
)
FAST_OPTIONS = TransientOptions()


def wall_time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_hot_path_speedup_gate(monkeypatch):
    workload(FAST_OPTIONS)  # warm the device-table cache for both configs

    # Best of REPEATS for each configuration (min is the standard
    # noise-robust estimate), with the two configurations alternating.
    optimized = baseline = float("inf")
    for _ in range(REPEATS):
        optimized = min(optimized, wall_time(lambda: workload(FAST_OPTIONS)))
        with monkeypatch.context() as m:
            m.setattr(dcop, "MnaSystem", ReferenceMnaSystem)
            m.setattr(transient, "MnaSystem", ReferenceMnaSystem)
            m.setattr(CubicTable2D, "reference_evaluation", True)
            baseline = min(baseline, wall_time(lambda: workload(SEED_OPTIONS)))

    speedup = baseline / optimized
    print(
        f"\nbaseline {baseline * 1e3:.1f} ms, optimized {optimized * 1e3:.1f} ms "
        f"-> {speedup:.2f}x"
    )

    with telemetry.enabled() as tel:
        workload(FAST_OPTIONS)
        counters = dict(tel.counters)

    _emit_bench(baseline, optimized, speedup, counters)
    assert speedup >= SPEEDUP_GATE, (
        f"hot path regressed: {speedup:.2f}x < {SPEEDUP_GATE}x "
        f"(baseline {baseline:.3f} s, optimized {optimized:.3f} s)"
    )


def _emit_bench(baseline, optimized, speedup, counters) -> None:
    stamps = counters.get("newton.jacobian_stamps", 0)
    reuses = counters.get("newton.jacobian_reuses", 0)
    payload = {
        "schema": "repro.bench.spice_core/v1",
        "created_unix": time.time(),
        "workload": "tfet6t write + read-disturb transients (fig04-class)",
        "timing": f"best of {REPEATS} per configuration, alternating",
        "baseline_wall_s": baseline,
        "optimized_wall_s": optimized,
        "speedup": speedup,
        "gate": SPEEDUP_GATE,
        "newton": {
            "jacobian_stamps": stamps,
            "jacobian_reuses": reuses,
            "reuse_fraction": reuses / max(stamps + reuses, 1),
            "solves": counters.get("newton.solves", 0),
            "iterations": counters.get("newton.iterations", 0),
        },
        "transient": {
            "steps_accepted": counters.get("transient.steps_accepted", 0),
            "steps_rejected": counters.get("transient.steps_rejected", 0),
            "predictor_fallbacks": counters.get("transient.predictor_fallbacks", 0),
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
