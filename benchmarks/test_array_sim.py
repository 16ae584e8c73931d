"""Guard: sparse MNA speedup on a compiled array critical path.

The array compiler's whole premise is that a composed column (hundreds
of unknowns) stays simulatable because ``make_system`` auto-selects the
sparse assembler past the 64-unknown threshold.  This guard compiles
the 256x32 read path (~840 unknowns), measures it once with the solver
forced dense and once forced sparse, and asserts:

* the sparse run is at least ``MIN_SPEEDUP`` times faster (the
  committed ``BENCH_array.json``: 24.8x, dense 29.8 s against sparse
  1.20 s on a shared 2-vCPU host);
* both solvers produce the *same* access delay (the speedup is not
  bought with accuracy).

Emits ``BENCH_array.json`` at the repo root (schema
``repro.bench.array/v1``; headline ``speedup``, gated by
``min_speedup``) for ``repro bench`` / ``scripts/bench_track.py``
regression tracking.

Run with ``PYTHONPATH=src python -m pytest -q -s
benchmarks/test_array_sim.py``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from pathlib import Path

from repro.circuit.transient import TransientOptions
from repro.sram import AccessConfig, CellSizing, Tfet6TCell
from repro.sram.array import ArrayGeometry
from repro.sram.compiler import compile_array, measure_array

ROWS, COLUMNS = 256, 32
MIN_SPEEDUP = 2.0
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_array.json"


def _options(matrix_format: str) -> TransientOptions:
    base = TransientOptions()
    return replace(base, solver=replace(base.solver, matrix_format=matrix_format))


def _timed_measure(compiled, matrix_format: str):
    start = time.perf_counter()
    measurement = measure_array(compiled, options=_options(matrix_format))
    return time.perf_counter() - start, measurement


def test_sparse_speedup_on_compiled_path():
    cell = Tfet6TCell(CellSizing().with_beta(0.6), access=AccessConfig.INWARD_P)
    compiled = compile_array(cell, ArrayGeometry(ROWS, COLUMNS), 0.8)
    assert compiled.unknown_count > 500

    # Warm-up (device tables, JIT-ish numpy paths) outside the timings.
    small = compile_array(cell, ArrayGeometry(4, 2), 0.8)
    measure_array(small)

    dense_wall, dense_m = _timed_measure(compiled, "dense")
    sparse_wall, sparse_m = _timed_measure(compiled, "sparse")
    speedup = dense_wall / sparse_wall

    assert math.isfinite(sparse_m.access_delay)
    # Same physics from both assemblers: the sparse path is a solver
    # optimization, not a model change (factorization orderings differ,
    # so agreement is to solver tolerance, not bit-exact).
    assert math.isclose(
        sparse_m.access_delay, dense_m.access_delay, rel_tol=1e-6
    )
    assert sparse_m.sparse_engaged and not dense_m.sparse_engaged

    payload = {
        "schema": "repro.bench.array/v1",
        "created_unix": time.time(),
        "rows": ROWS,
        "columns": COLUMNS,
        "unknowns": compiled.unknown_count,
        "dense_wall_s": dense_wall,
        "sparse_wall_s": sparse_wall,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "access_delay_ps": sparse_m.access_delay * 1e12,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2))
    print(f"\narray path: {compiled.unknown_count} unknowns, "
          f"dense {dense_wall:.2f} s, sparse {sparse_wall:.2f} s "
          f"-> {speedup:.2f}x (gate {MIN_SPEEDUP}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"sparse speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
    )
