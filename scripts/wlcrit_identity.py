"""Check that the WL_crit search matches its full-length reference.

Runs every ``wl_crit`` entry of ``perfbench/golden.json`` (read only)
through :class:`repro.analysis.stability.WlCritSearch` and
:class:`repro.analysis.stability.ReferenceWlCritSearch`, the way
``repro.char.metrics.evaluate_metric`` evaluates it, and compares the
two searches' values and probe decisions ``(width, flipped)`` exactly.
Prints one line per entry and exits 1 on any difference.  Takes no
options; about 3 minutes on a 2-vCPU x86 VM::

    PYTHONPATH=src python scripts/wlcrit_identity.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.stability import (  # noqa: E402
    ReferenceWlCritSearch,
    WlCritSearch,
    critical_wordline_pulse,
)
from repro.char.designs import build_cell  # noqa: E402
from repro.char.metrics import WL_CRIT_UPPER_BOUND  # noqa: E402

GOLDEN = ROOT / "perfbench" / "golden.json"


def run(search_cls, entry: dict) -> tuple[float, list, float]:
    cell, _ = build_cell(entry["design"], beta=entry["beta"], corner=entry["corner"])
    search = search_cls(upper_bound=WL_CRIT_UPPER_BOUND)
    start = time.perf_counter()
    value = critical_wordline_pulse(cell, entry["vdd"], search=search)
    return value, list(search.decisions), time.perf_counter() - start


def main() -> int:
    cells = json.loads(GOLDEN.read_text())["cells"]
    entries = sorted((k, e) for k, e in cells.items() if e["metric"] == "wl_crit")
    differences = 0
    wall = {"reference": 0.0, "search": 0.0}
    for key, entry in entries:
        ref_value, ref_decisions, ref_s = run(ReferenceWlCritSearch, entry)
        value, decisions, s = run(WlCritSearch, entry)
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
    print(
        f"{len(entries)} entries, {differences} different; "
        f"search {wall['search']:.1f}s, reference {wall['reference']:.1f}s"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
