"""Check that the WL_crit search matches its full-length reference and
its stacked-batch runs.

Runs every ``wl_crit`` entry of ``perfbench/golden.json`` (read only)
through :class:`repro.analysis.stability.WlCritSearch` and
:class:`repro.analysis.stability.ReferenceWlCritSearch`, the way
``repro.char.metrics.evaluate_metric`` evaluates it, and compares the
two searches' values and probe decisions ``(width, flipped)`` exactly.
Then it runs the same searches again as stacked batches, one
:func:`repro.circuit.batch.run_generators` call per design (supply,
beta and corner vary inside a batch), and compares each batched value
and decision list with the scalar search's.  Prints one line per entry
and one per batch, and exits 1 on any difference.  Takes no options;
about 2 minutes on a 2-vCPU x86 VM::

    PYTHONPATH=src python scripts/wlcrit_identity.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.stability import (  # noqa: E402
    ReferenceWlCritSearch,
    WlCritSearch,
    wlcrit_bench_factory,
)
from repro.char.designs import build_cell  # noqa: E402
from repro.char.metrics import WL_CRIT_UPPER_BOUND  # noqa: E402
from repro.circuit.batch import run_generators  # noqa: E402

GOLDEN = ROOT / "perfbench" / "golden.json"


def bench_factory(entry: dict):
    cell, _ = build_cell(entry["design"], beta=entry["beta"], corner=entry["corner"])
    return wlcrit_bench_factory(cell, entry["vdd"])


def run(search_cls, entry: dict) -> tuple[float, list, float]:
    search = search_cls(upper_bound=WL_CRIT_UPPER_BOUND)
    start = time.perf_counter()
    value = search.search(bench_factory(entry))
    return value, list(search.decisions), time.perf_counter() - start


def run_batched(entries: list[tuple[str, dict]]) -> tuple[list, float]:
    """One stacked batch of searches; ``[(value, decisions)]`` in order."""
    searches = [WlCritSearch(upper_bound=WL_CRIT_UPPER_BOUND) for _ in entries]
    gens = [s.search_gen(bench_factory(e)) for s, (_, e) in zip(searches, entries)]
    start = time.perf_counter()
    outcomes = run_generators(gens)
    wall = time.perf_counter() - start
    results = []
    for outcome, search in zip(outcomes, searches):
        if outcome.status != "ok":
            raise outcome.error
        results.append((outcome.value, list(search.decisions)))
    return results, wall


def main() -> int:
    cells = json.loads(GOLDEN.read_text())["cells"]
    entries = sorted((k, e) for k, e in cells.items() if e["metric"] == "wl_crit")
    differences = 0
    wall = {"reference": 0.0, "search": 0.0, "batched": 0.0}
    scalar = {}
    for key, entry in entries:
        ref_value, ref_decisions, ref_s = run(ReferenceWlCritSearch, entry)
        value, decisions, s = run(WlCritSearch, entry)
        scalar[key] = (value, decisions)
        wall["reference"] += ref_s
        wall["search"] += s
        same = value == ref_value and decisions == ref_decisions
        differences += not same
        print(
            f"{'ok  ' if same else 'DIFF'} {key:16s} {entry['design']:9s} "
            f"vdd={entry['vdd']} beta={entry['beta']} corner={entry['corner']} "
            f"value={value!r} reference={ref_value!r} probes={len(decisions)}/"
            f"{len(ref_decisions)} golden={'=' if value == entry['value'] else '!='} "
            f"{s:.2f}s/{ref_s:.2f}s",
            flush=True,
        )
    by_design = sorted(entries, key=lambda ke: ke[1]["design"])
    for design, group in itertools.groupby(by_design, key=lambda ke: ke[1]["design"]):
        group = list(group)
        results, s = run_batched(group)
        wall["batched"] += s
        different = [key for (key, _), got in zip(group, results) if got != scalar[key]]
        differences += len(different)
        print(
            f"{'DIFF' if different else 'ok  '} batched {design:9s} "
            f"{len(group)} searches, {len(different)} different "
            f"{' '.join(different)} {s:.2f}s",
            flush=True,
        )
    print(
        f"{len(entries)} entries, {differences} different; "
        f"search {wall['search']:.1f}s, reference {wall['reference']:.1f}s, "
        f"batched {wall['batched']:.1f}s"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
