"""Gate: stacked-batch Newton is >= 5x the scalar path on MC work.

The workload is a 64-sample Monte-Carlo DRNM study of the read-assist
design point (beta = 0.6) — the fig10 inner loop.  Two configurations
run in this process on identical per-sample netlists:

* **scalar** — one :func:`simulate_transient` per sample, the seed's
  Monte-Carlo shape (and still the retry/verify fallback path);
* **batched** — all 64 samples as one stacked Newton batch
  (:mod:`repro.circuit.batch`): a single generator-driven control loop
  whose per-tick assembly stamps every member's matrix from shared
  index arrays.

Values are asserted bit-identical between the two paths before timing
— the speedup only counts if the batch is exact.  The run emits
``BENCH_spice_batch.json`` at the repo root for the CI artifact trail
and the ``repro bench`` history gate.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/test_spice_batch.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.montecarlo import varied_device_set
from repro.analysis.stability import SETTLE_TIME
from repro.circuit.batch import run_generators
from repro.circuit.transient import simulate_transient, transient_gen
from repro.devices.variation import OxideVariation
from repro.engine.mc import sample_scales
from repro.sram import AccessConfig, CellSizing, Tfet6TCell
from repro.telemetry import core as telemetry

SPEEDUP_GATE = 5.0
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_spice_batch.json"
SAMPLES = 64
SEED = 10
VDD = 0.8
BETA = 0.6


def _bench_for(scales):
    cell = Tfet6TCell(
        CellSizing().with_beta(BETA),
        AccessConfig.INWARD_P,
        devices=varied_device_set(scales),
    )
    return cell.read_testbench(VDD)


def _drnm(bench, result) -> float:
    return result.min_difference(
        bench.one_node, bench.zero_node, bench.window.t_on, bench.window.t_off
    )


def _run_scalar(all_scales) -> list[float]:
    values = []
    for scales in all_scales:
        bench = _bench_for(scales)
        result = simulate_transient(
            bench.circuit,
            bench.settle_stop(SETTLE_TIME),
            initial_conditions=bench.initial_conditions,
        )
        values.append(_drnm(bench, result))
    return values


def _run_batched(all_scales) -> list[float]:
    benches = [_bench_for(scales) for scales in all_scales]
    outcomes = run_generators([
        transient_gen(
            bench.circuit,
            bench.settle_stop(SETTLE_TIME),
            initial_conditions=bench.initial_conditions,
        )
        for bench in benches
    ])
    for outcome in outcomes:
        if outcome.status != "ok":
            raise outcome.error
    return [_drnm(b, o.value) for b, o in zip(benches, outcomes)]


def test_batch_speedup_gate():
    variation = OxideVariation()
    all_scales = [sample_scales(variation, SEED, k, 6) for k in range(SAMPLES)]
    for scales in all_scales:  # warm the device-table cache for both paths
        _bench_for(scales)

    batched_values = _run_batched(all_scales)
    scalar_values = _run_scalar(all_scales)
    assert (
        np.asarray(batched_values).tobytes() == np.asarray(scalar_values).tobytes()
    ), "batched values are not bit-identical to the scalar path"

    batched = _timed(lambda: _run_batched(all_scales))
    scalar = _timed(lambda: _run_scalar(all_scales))
    speedup = scalar / batched
    print(
        f"\nscalar {scalar:.2f} s, batched {batched:.2f} s "
        f"({1e3 * batched / SAMPLES:.1f} ms/sample) -> {speedup:.2f}x"
    )

    with telemetry.enabled() as tel:
        _run_batched(all_scales)
        counters = dict(tel.counters)

    _emit_bench(scalar, batched, speedup, counters)
    assert speedup >= SPEEDUP_GATE, (
        f"stacked batch regressed: {speedup:.2f}x < {SPEEDUP_GATE}x "
        f"(scalar {scalar:.3f} s, batched {batched:.3f} s)"
    )


def _timed(fn, repeats: int = 2) -> float:
    """Best-of-N wall time (min is the standard noise-robust estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _emit_bench(scalar, batched, speedup, counters) -> None:
    payload = {
        "schema": "repro.bench.spice_batch/v1",
        "created_unix": time.time(),
        "workload": (
            f"{SAMPLES}-sample Monte-Carlo DRNM at beta={BETA} "
            "(fig10-class read-disturb transients)"
        ),
        "samples": SAMPLES,
        "scalar_wall_s": scalar,
        "batched_wall_s": batched,
        "speedup": speedup,
        "gate": SPEEDUP_GATE,
        "batch": {
            "runs": counters.get("batch.runs", 0),
            "members": counters.get("batch.members", 0),
            "ticks": counters.get("batch.ticks", 0),
            "member_assemblies": counters.get("batch.member_assemblies", 0),
            "table_points": counters.get("batch.table_points", 0),
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
