"""Show that the speed correction removes host drift but not regressions.

Run from the root of a checkout (about 2 minutes)::

    python3 perfbench/validate_probe.py

Every measurement is one cell_metrics round (28 ``evaluate_metric``
calls, seed :data:`SEED`) in a fresh process with the probe on.

1. Contention: the round runs alone, then beside a busy loop, both
   pinned with ``taskset`` to one vCPU.  The corrected times must agree
   within the ``throughput`` bound of ``BENCHMARK.json`` while the raw
   times differ by more than it.
2. Regression: the round runs again with fixed busy work added to every
   ``MnaSystem.assemble`` call through a wrapper.  The corrected
   slowdown must match its computed share (calls x corrected cost of
   the added work / base time) within a quarter of that share.

Prints one JSON report and exits 0 when both checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

SEED = 3

INJECT_LOOPS = 1500
"""Iterations of added busy work per ``MnaSystem.assemble`` call."""

REGRESSION_TOLERANCE = 0.25


def busy(loops: int) -> float:
    acc = 0.0
    for i in range(loops):
        acc += i * 0.5
    return acc


def measure(inject: int) -> dict:
    """One round in this process; corrected and raw op seconds."""
    common.prepare_environment()
    import probe
    import workloads

    prober = probe.Probe().start()
    workload = workloads.CellMetrics(SEED)
    workload.import_layers()
    workload.build_tables()
    workload.prepare()
    from repro.circuit.mna import MnaSystem

    original = MnaSystem.assemble
    calls = [0]

    def assemble(*args, **kwargs):
        calls[0] += 1
        busy(inject)
        return original(*args, **kwargs)

    MnaSystem.assemble = assemble
    ops = workload.round(0)
    for op in ops:
        w0 = prober.run_delay()
        op.t0 = time.perf_counter()
        op.value = workload.run(op)
        op.t1 = time.perf_counter()
        op.waited = prober.run_delay() - w0
    MnaSystem.assemble = original
    # The added work's own corrected cost, measured on the same probe.
    t0 = time.perf_counter()
    for _ in range(2000):
        busy(INJECT_LOOPS)
    t1 = time.perf_counter()
    prober.stop()
    samples = prober.samples()
    failed = [op.key for op in ops if workload.check(op)]
    return {
        "corrected_s": sum(samples.corrected(op.t0, op.t1, op.waited) for op in ops),
        "raw_s": sum(op.t1 - op.t0 for op in ops),
        "assemble_calls": calls[0],
        "inject_cost_s": samples.corrected(t0, t1) / 2000,
        "failed": failed,
    }


def child(inject: int = 0, cpu: int | None = None) -> dict:
    cmd = [sys.executable, __file__, "--measure", "--inject", str(inject)]
    if cpu is not None:
        cmd = ["taskset", "-c", str(cpu)] + cmd
    out = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, check=True,
                         env={**os.environ, **common.BENCH_ENV})
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.inject)))
        return 0

    bound = next(m["bound"] for m in json.loads((common.ROOT / "BENCHMARK.json").read_text())
                 ["end_to_end"] if m["name"] == "throughput")
    cpu = max(os.sched_getaffinity(0))
    alone = child(cpu=cpu)
    hog = subprocess.Popen(["taskset", "-c", str(cpu), sys.executable, "-c",
                            "while True:\n    pass"])
    try:
        contended = child(cpu=cpu)
    finally:
        hog.kill()
        hog.wait()
    injected = child(inject=INJECT_LOOPS)
    base = child()

    corrected_shift = contended["corrected_s"] / alone["corrected_s"] - 1.0
    raw_shift = contended["raw_s"] / alone["raw_s"] - 1.0
    expected = injected["assemble_calls"] * injected["inject_cost_s"] / base["corrected_s"]
    measured = injected["corrected_s"] / base["corrected_s"] - 1.0
    report = {
        "contention": {"alone": alone, "contended": contended, "bound": bound,
                       "corrected_shift": corrected_shift, "raw_shift": raw_shift,
                       "pass": abs(corrected_shift) <= bound < abs(raw_shift)},
        "regression": {"base": base, "injected": injected, "expected_share": expected,
                       "measured_share": measured,
                       "pass": abs(measured - expected) <= REGRESSION_TOLERANCE * expected},
    }
    failed = [k for run in (alone, contended, injected, base) for k in run["failed"]]
    report["outputs_correct"] = not failed
    print(json.dumps(report, indent=1))
    ok = report["contention"]["pass"] and report["regression"]["pass"] and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
