"""Shared definitions of the benchmark: the op universe and golden checks.

Every file in this directory runs from the root of a checkout of the
repository (``python3 perfbench/<script>.py``) and imports the program
from that checkout's ``src/``.  Nothing here is imported by the program.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
CACHE_DIR = ROOT / ".perfbench_cache"
"""Benchmark-owned scratch space inside the checkout (git-ignored)."""

CELL_SPECS = ("nominal", "beta_sweep", "corners")
"""Builtin char specs whose every entry is in the golden table."""

MISS_METRICS = ("hold_power", "drnm", "read_delay", "write_delay")
"""Metrics of serve_mix's cold misses (never WL_crit)."""
MISS_VDDS = (0.55, 0.65, 0.75, 0.85)

ARRAY_ROWS = (64, 128, 256)
ARRAY_COLUMNS = 32
ARRAY_VDD = 0.8
ARRAY_SCENARIOS = ("read", "write", "half_select")

CELL_TOLERANCE = {
    # metric: (relative, absolute).  The program is deterministic, so
    # equal code reproduces the table bit for bit; the slack admits
    # reordered floating-point arithmetic, not a different answer.
    "hold_power": (1e-6, 0.0),
    "drnm": (1e-5, 1e-6),
    "wl_crit": (1e-3, 0.0),
    "read_delay": (1e-4, 0.0),
    "write_delay": (1e-4, 0.0),
}
ARRAY_TOLERANCE = (1e-4, 1e-18)
"""(relative, absolute) on every finite array figure of merit."""

ARRAY_FIELDS = (
    "unknowns", "wordline_delay", "access_delay", "resolved_delay",
    "energy", "cell_energy", "disturb_margin", "victim_flipped",
)

BENCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def prepare_environment() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first.

    Exits with status 2 when the checkout holds no program, so the
    benchmark never reports a result it did not measure.
    """
    os.environ.update(BENCH_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class RunDelay:
    """Cumulative run-queue wait (s) of the thread that created it: time
    it was runnable while another task held its vCPU.  Always 0.0 where
    the kernel exposes no schedstat."""

    def __init__(self) -> None:
        path = f"/proc/self/task/{threading.get_native_id()}/schedstat"
        self._fd = os.open(path, os.O_RDONLY) if os.path.exists(path) else None

    def __call__(self) -> float:
        if self._fd is None:
            return 0.0
        return int(os.pread(self._fd, 64, 0).split()[1]) * 1e-9


def cell_key(spec: str, index: int) -> str:
    return f"{spec}#{index}"


def builtin_specs() -> list:
    from repro.char.spec import BUILTIN_SPECS

    return [BUILTIN_SPECS[name] for name in CELL_SPECS]


def miss_specs() -> list:
    """More serve_mix miss points, all outside the serve store (which
    holds tt at canonical sizing, ``serve_spec.json``): TFET designs at
    the four off-nominal corners and the CMOS cell at swept ratios."""
    from repro.char.spec import CharSpec

    return [
        CharSpec(name="miss_corners", designs=("proposed", "asym", "7t", "outward_n"),
                 vdds=MISS_VDDS, metrics=MISS_METRICS, corners=("ff", "ss", "fs", "sf")),
        CharSpec(name="miss_betas", designs=("cmos",), vdds=MISS_VDDS,
                 metrics=MISS_METRICS, betas=(0.5, 0.7, 1.2, 2.5)),
    ]


def cell_entries(specs: list):
    """``(key, technology, entry)`` for every entry of ``specs``."""
    from repro.char.designs import DESIGNS

    out = []
    for spec in specs:
        for entry in spec.entries():
            tech = DESIGNS[entry.point.design].technology
            out.append((cell_key(spec.name, entry.index), tech, entry))
    return out


def array_key(rows: int, scenario: str) -> str:
    return f"{rows}x{ARRAY_COLUMNS}/{scenario}"


def array_cases():
    return [(array_key(r, s), r, s) for r in ARRAY_ROWS for s in ARRAY_SCENARIOS]


def run_array_case(rows: int, scenario: str):
    """Compile and measure one inward-pTFET array path; returns both."""
    from repro.experiments.designs import proposed_cell, proposed_read_assist
    from repro.sram.array import ArrayGeometry
    from repro.sram.compiler import compile_array, measure_array

    assist = proposed_read_assist() if scenario == "read" else None
    compiled = compile_array(
        proposed_cell(), ArrayGeometry(rows=rows, columns=ARRAY_COLUMNS),
        ARRAY_VDD, scenario=scenario, assist=assist,
    )
    return compiled, measure_array(compiled)


def array_record(measurement) -> dict:
    return {f: _plain(getattr(measurement, f)) for f in ARRAY_FIELDS}


def _plain(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    return float(value)


def close(value, expected, rel: float, abs_: float) -> bool:
    """Golden comparison: equal non-finite values, else within tolerance."""
    if isinstance(expected, bool) or isinstance(value, bool):
        return bool(value) == bool(expected)
    value, expected = float(value), float(expected)
    if math.isnan(expected) or math.isnan(value):
        return math.isnan(expected) and math.isnan(value)
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= abs_ + rel * abs(expected)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
