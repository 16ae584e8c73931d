"""Section 4.3 walkthrough: process-variation robustness of the design.

Monte-Carlo over +/-5 % gate-insulator thickness (independent per
transistor) for the proposed design point — beta = 0.6 with
V_GND-lowering read assist — reporting the DRNM and WL_crit
distributions and a simple parametric yield (fraction of samples whose
margins clear configurable limits).

The sampling runs on the batch engine (`repro.engine`): samples are
solved in chunks, each chunk one stacked Newton batch, `--jobs N` fans
the chunks across N worker processes, `--resume` continues an
interrupted run from its JSONL checkpoint, and any jobs/resume
combination is bit-identical to a serial run with the same seed.

Usage::

    python examples/monte_carlo_yield.py [--samples 24] [--seed 2011]
                                         [--jobs 4] [--resume]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.engine import EngineConfig, McMetricSpec, MonteCarloBatch

VDD = 0.8
BETA = 0.6
DRNM_LIMIT = 0.4  # volts
WLCRIT_LIMIT = 2e-9  # seconds


def print_histogram(label: str, counts: np.ndarray, edges: np.ndarray, unit: float, unit_name: str) -> None:
    print(f"  {label}")
    peak = max(int(c) for c in counts) or 1
    for count, lo, hi in zip(counts, edges, edges[1:]):
        bar = "#" * (40 * int(count) // peak)
        print(f"    {lo / unit:8.1f} - {hi / unit:8.1f} {unit_name} | {bar} {count}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from its checkpoints",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help="directory for checkpoints "
        "(default: a temp directory; pass a path to make --resume useful)",
    )
    args = parser.parse_args()

    run_dir = Path(args.run_dir) if args.run_dir else Path(tempfile.mkdtemp(prefix="mc_yield_"))
    specs = {
        "drnm": McMetricSpec(
            metric="drnm", beta=BETA, vdd=VDD, assist="vgnd_lowering",
            metric_name="DRNM",
        ),
        "wlcrit": McMetricSpec(
            metric="wlcrit", beta=BETA, vdd=VDD, wlcrit_upper_bound=8e-9,
            metric_name="WLcrit",
        ),
    }

    print(
        f"Monte-Carlo ({args.samples} samples, +/-5% t_ox per transistor) of the "
        f"proposed cell at V_DD = {VDD} V  [jobs={args.jobs}]"
    )

    results = {}
    for key, spec in specs.items():
        engine = EngineConfig(
            jobs=args.jobs,
            checkpoint_path=run_dir / f"{key}.jsonl",
            resume=args.resume,
            run_key=f"mc_yield:{key}:beta={BETA}:vdd={VDD}",
            root_seed=args.seed,
        )
        results[key] = MonteCarloBatch(spec).run(
            args.samples, seed=args.seed, engine=engine
        )

    drnm_mc, wl_mc = results["drnm"], results["wlcrit"]

    print()
    print(f"DRNM   : mean {drnm_mc.mean() * 1e3:6.1f} mV, spread {drnm_mc.spread() * 100:.1f} %")
    counts, edges = drnm_mc.histogram(bins=8)
    print_histogram("distribution:", counts, edges, 1e-3, "mV")

    print()
    print(
        f"WL_crit: mean {wl_mc.mean() * 1e12:6.1f} ps, spread {wl_mc.spread() * 100:.1f} %, "
        f"write failures: {wl_mc.failure_count}"
    )
    counts, edges = wl_mc.histogram(bins=8)
    print_histogram("distribution:", counts, edges, 1e-12, "ps")

    print()
    print("metric   | failure fraction | spread (std/mean)")
    print("---------+------------------+------------------")
    for key, mc in results.items():
        print(
            f"{mc.metric_name:<8} | {mc.failure_fraction:16.1%} | {mc.spread():.4f}"
        )

    read_yield = float(np.mean(drnm_mc.samples > DRNM_LIMIT))
    write_yield = float(np.mean(wl_mc.samples < WLCRIT_LIMIT))
    print()
    print(f"parametric yield: read (DRNM > {DRNM_LIMIT * 1e3:.0f} mV)  = {read_yield:6.1%}")
    print(f"                  write (WL_crit < {WLCRIT_LIMIT * 1e12:.0f} ps) = {write_yield:6.1%}")

    print()
    print("engine   : "
          + "; ".join(
              f"{mc.metric_name}: {mc.report.ok_count} ok, "
              f"{mc.report.failed_count} failed, {mc.report.retry_count} retries, "
              f"{mc.report.resumed_count} resumed, {mc.report.wall_s:.1f} s "
              f"at jobs={mc.report.jobs}"
              for mc in results.values()
          ))
    print()
    print("Paper, Section 4.3: the write-sized, read-assisted cell 'shows")
    print("strong immunity to process variations.'")


if __name__ == "__main__":
    main()
