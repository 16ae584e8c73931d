"""Compute the golden table the benchmark checks every op against.

Run once from the root of a checkout, on the code the table should
describe (about 10 minutes on a 2-vCPU x86 VM, single-threaded)::

    python3 perfbench/golden.py

It evaluates through ``repro.char.metrics.evaluate_metric`` every
entry of the builtin ``nominal``, ``beta_sweep`` and ``corners`` char
specs (section ``cells``) and of the extra serve_mix miss specs of
``common.miss_specs`` (section ``misses``), and through
``compile_array`` + ``measure_array`` every array geometry and scenario
of the ``array_column`` workload (section ``arrays``), then writes
``perfbench/golden.json`` afresh.  ``cost_s`` is the speed-corrected
time of each evaluation (``probe.py``); the benchmark uses it only to
balance its draws.  The tolerances live in ``common.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


RUN_DELAY = common.RunDelay()


def timed(fn, windows: dict, key: str):
    w0 = RUN_DELAY()
    start = time.perf_counter()
    value = fn()
    windows[key] = (start, time.perf_counter(), RUN_DELAY() - w0)
    print(f"{key:20s} {windows[key][1] - start:7.2f}s", flush=True)
    return value


def compute_cells(specs: list, windows: dict) -> dict:
    from repro.char.metrics import evaluate_metric

    out = {}
    for key, tech, entry in common.cell_entries(specs):
        p = entry.point
        value = timed(lambda: evaluate_metric(entry.metric, p.design, p.vdd,
                                              beta=p.beta, corner=p.corner), windows, key)
        out[key] = {"metric": entry.metric, "technology": tech, "design": p.design,
                    "vdd": p.vdd, "beta": p.beta, "corner": p.corner, "value": float(value)}
    return out


def compute_arrays(windows: dict) -> dict:
    out = {}
    for key, rows, scenario in common.array_cases():
        _, measurement = timed(lambda: common.run_array_case(rows, scenario), windows, key)
        out[key] = {"rows": rows, "scenario": scenario, **common.array_record(measurement)}
    return out


def main() -> int:
    common.prepare_environment()
    import probe

    prober = probe.Probe().start()
    windows: dict[str, tuple[float, float, float]] = {}
    golden = {
        "cells": compute_cells(common.builtin_specs(), windows),
        "misses": compute_cells(common.miss_specs(), windows),
        "arrays": compute_arrays(windows),
    }
    prober.stop()
    samples = prober.samples()
    for entries in golden.values():
        for key, entry in entries.items():
            entry["cost_s"] = round(samples.corrected(*windows[key]), 4)
    common.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
