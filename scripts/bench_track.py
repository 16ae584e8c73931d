#!/usr/bin/env python
"""Record BENCH_*.json headline metrics and flag regressions.

Scans the repo root (or ``--root``) for the ``BENCH_*.json`` artifacts
the benchmarks emit, normalizes each into a headline record
(:mod:`repro.obs.bench`), appends the new ones to
``results/bench_history.jsonl`` (idempotent — records are keyed by the
benchmark's own creation stamp), and prints the per-bench history
table.

``--check`` exits 1 when any bench's latest value breaches its hard
gate or drops more than ``--tolerance`` below the median of its prior
runs — the CI regression gate.  ``--selftest`` verifies the gate
itself: a synthetic regression injected into a temporary history must
be flagged, and a healthy history must pass.

``python -m repro bench history|check`` is the same machinery behind
the package CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import bench  # noqa: E402


def collect_records(root: Path) -> list[dict]:
    records = []
    for path in bench.collect_bench_files(root):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            print(f"note: skipping unreadable {path}", file=sys.stderr)
            continue
        record = bench.bench_record(payload, path.name)
        if record is None:
            print(f"note: no headline metric in {path}; skipped", file=sys.stderr)
            continue
        records.append(record)
    return records


def selftest(tolerance: float) -> int:
    """The regression gate must catch a planted regression and pass a
    healthy history; exercised in CI so the gate cannot rot silently."""
    healthy = [
        {
            "schema": bench.RECORD_SCHEMA,
            "bench": "engine",
            "bench_schema": "repro.bench.engine/v1",
            "created_unix": float(i),
            "recorded_unix": float(i),
            "metric": "speedup",
            "direction": "higher",
            "value": 3.6 + 0.1 * i,
            "limit": 2.0,
            "source": "selftest",
        }
        for i in range(3)
    ]
    regressed = healthy + [
        {**healthy[-1], "created_unix": 99.0, "value": 1.2}
    ]
    with tempfile.TemporaryDirectory() as td:
        healthy_path = Path(td) / "healthy.jsonl"
        regressed_path = Path(td) / "regressed.jsonl"
        bench.append_history(healthy, healthy_path)
        bench.append_history(regressed, regressed_path)
        ok_problems = bench.check_history(
            bench.load_history(healthy_path), tolerance
        )
        bad_problems = bench.check_history(
            bench.load_history(regressed_path), tolerance
        )
    if ok_problems:
        print(f"selftest FAILED: healthy history flagged: {ok_problems}")
        return 1
    if not bad_problems:
        print("selftest FAILED: planted regression (3.8x -> 1.2x) not flagged")
        return 1

    # The stacked-batch family must normalize through its registered
    # headline and enforce the payload's own hard gate.
    batch_record = bench.bench_record(
        {"schema": "repro.bench.spice_batch/v1", "created_unix": 1.0,
         "speedup": 6.8, "gate": 5.0},
        "selftest",
    )
    if (
        batch_record is None
        or batch_record["metric"] != "speedup"
        or batch_record["limit"] != 5.0
    ):
        print("selftest FAILED: spice_batch payload did not normalize")
        return 1
    breach = bench.check_history([{**batch_record, "value": 4.0}], tolerance)
    if not breach:
        print("selftest FAILED: spice_batch gate breach (4.0x < 5x) not flagged")
        return 1

    # The compiled-array family: sparse-vs-dense speedup on the array
    # critical path, floored by the payload's min_speedup.
    array_record = bench.bench_record(
        {"schema": "repro.bench.array/v1", "created_unix": 1.0,
         "speedup": 6.2, "min_speedup": 2.0},
        "selftest",
    )
    if (
        array_record is None
        or array_record["metric"] != "speedup"
        or array_record["direction"] != "higher"
        or array_record["limit"] != 2.0
    ):
        print("selftest FAILED: array payload did not normalize")
        return 1
    array_breach = bench.check_history(
        [{**array_record, "value": 1.4}], tolerance
    )
    if not array_breach:
        print("selftest FAILED: array gate breach (1.4x < 2x) not flagged")
        return 1
    print(
        "selftest ok: healthy history passes, planted regressions flagged "
        f"({bad_problems[0]}; {breach[0]}; {array_breach[0]})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--root", default=str(REPO_ROOT), metavar="DIR",
                        help="directory scanned for BENCH_*.json")
    parser.add_argument("--history",
                        default=str(REPO_ROOT / bench.DEFAULT_HISTORY),
                        metavar="PATH", help="history log location")
    parser.add_argument("--tolerance", type=float, default=0.25, metavar="F",
                        help="allowed fractional drop below the baseline "
                        "median for higher-is-better metrics")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any regression (CI gate)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate flags a planted regression")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest(args.tolerance)

    added = bench.append_history(collect_records(Path(args.root)), args.history)
    if added:
        print(f"recorded {added} new bench result(s) into {args.history}")
    history = bench.load_history(args.history)
    print(bench.format_history(history, tolerance=args.tolerance))
    if args.check:
        problems = bench.check_history(history, tolerance=args.tolerance)
        if problems:
            print()
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print()
        print("no regressions detected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
