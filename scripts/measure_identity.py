"""Check that the early-ending measurements match their full-length
references and their stacked-batch runs.

Three parts, each on ``perfbench/golden.json`` (read only):

* WL_crit: every ``wl_crit`` entry through
  :class:`repro.analysis.stability.WlCritSearch` and
  :class:`repro.analysis.stability.ReferenceWlCritSearch`, the way
  ``repro.char.metrics.evaluate_metric`` evaluates it, comparing the two
  searches' values and probe decisions ``(width, flipped)`` exactly, and
  checking that a warm DC re-solve from the search's start state (the
  one t = 0 state all its probes start from) returns that state
  bytes-equal; then the same searches again as stacked batches, one
  :func:`repro.circuit.batch.run_generators` call per design (supply,
  beta and corner vary inside a batch), each batched value and decision
  list against the scalar search's.  The summary line adds up the
  accepted and resumed steps of both searches.
* DRNM, read delay and write delay: every ``drnm``, ``read_delay`` and
  ``write_delay`` entry through ``evaluate_metric``, whose transients
  stop at their decision points, and through the same call under
  :func:`repro.circuit.transient.full_length`, the full-length
  reference; the two values must be bytes-equal.
* One stacked-batch Monte-Carlo DRNM study (fig10's V_GND-lowering
  read assist at beta 0.6), each sample against the scalar
  :func:`repro.engine.mc.evaluate_mc_sample` and its full-length run.

Prints one line per entry, batch and study, and exits 1 on any
difference.  Takes no options; about 1.5 minutes on a 2-vCPU x86 VM::

    PYTHONPATH=src python scripts/measure_identity.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.stability import (  # noqa: E402
    ReferenceWlCritSearch,
    WlCritSearch,
)
from repro.char.designs import build_cell  # noqa: E402
from repro.char.metrics import WL_CRIT_UPPER_BOUND, evaluate_metric  # noqa: E402
from repro.circuit.batch import run_generators  # noqa: E402
from repro.circuit.dcop import drive  # noqa: E402
from repro.circuit.transient import (  # noqa: E402
    TransientOptions,
    full_length,
    transient_start_gen,
)
from repro.engine.jobs import TaskContext, derive_seed  # noqa: E402
from repro.engine.mc import (  # noqa: E402
    McMetricSpec,
    MonteCarloBatch,
    evaluate_mc_sample,
    sample_scales,
)
from repro.engine.scheduler import EngineConfig  # noqa: E402
from repro.telemetry import core as telemetry  # noqa: E402

GOLDEN = ROOT / "perfbench" / "golden.json"
STOPPED_METRICS = ("drnm", "read_delay", "write_delay")
MC_SPEC = McMetricSpec(metric="drnm", beta=0.6, assist="vgnd_lowering")
MC_SAMPLES = 8
MC_SEED = 10


def _bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


def bench_factory(entry: dict):
    cell, _ = build_cell(entry["design"], beta=entry["beta"], corner=entry["corner"])
    return cell.write_bench_factory(entry["vdd"])


def run(search_cls, entry: dict) -> dict:
    """One search of ``entry``: value, decisions, wall time, accepted
    and resumed steps, and whether its start state is a warm DC fixed
    point (always true for the reference, which keeps no start)."""
    search = search_cls(upper_bound=WL_CRIT_UPPER_BOUND)
    factory = bench_factory(entry)
    start = time.perf_counter()
    with telemetry.enabled() as tel:
        value = search.search(factory)
    wall = time.perf_counter() - start
    fixed = True
    if search_cls is WlCritSearch:
        fixed = search.start is not None and _is_warm_fixed_point(
            factory(search.upper_bound), search.start.x
        )
    return {
        "value": value,
        "decisions": list(search.decisions),
        "s": wall,
        "accepted": tel.counters.get("transient.steps_accepted", 0),
        "resumed": tel.counters.get("wlcrit.steps_resumed", 0),
        "fixed": fixed,
    }


def _is_warm_fixed_point(bench, x: np.ndarray) -> bool:
    """Whether the t = 0 solve seeded with ``x``'s node voltages, on a
    fresh system, returns ``x`` bytes-equal."""
    guess = dict(zip(bench.circuit.node_names, (float(v) for v in x)))
    _, state = drive(
        transient_start_gen(
            bench.circuit, bench.initial_conditions, TransientOptions(), guess
        )
    )
    return state.x.tobytes() == x.tobytes()


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


def check_wlcrit(cells: dict) -> int:
    entries = sorted((k, e) for k, e in cells.items() if e["metric"] == "wl_crit")
    differences = 0
    wall = {"reference": 0.0, "search": 0.0, "batched": 0.0}
    steps = {"accepted": 0, "resumed": 0, "reference": 0}
    scalar = {}
    for key, entry in entries:
        ref = run(ReferenceWlCritSearch, entry)
        got = run(WlCritSearch, entry)
        scalar[key] = (got["value"], got["decisions"])
        wall["reference"] += ref["s"]
        wall["search"] += got["s"]
        steps["accepted"] += got["accepted"]
        steps["resumed"] += got["resumed"]
        steps["reference"] += ref["accepted"]
        same = (
            got["value"] == ref["value"]
            and got["decisions"] == ref["decisions"]
            and got["fixed"]
        )
        differences += not same
        print(
            f"{'ok  ' if same else 'DIFF'} {key:16s} {entry['design']:9s} "
            f"vdd={entry['vdd']} beta={entry['beta']} corner={entry['corner']} "
            f"value={got['value']!r} reference={ref['value']!r} "
            f"probes={len(got['decisions'])}/{len(ref['decisions'])} "
            f"start={'fixed' if got['fixed'] else 'MOVES'} "
            f"golden={'=' if got['value'] == entry['value'] else '!='} "
            f"{got['s']:.2f}s/{ref['s']:.2f}s",
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
        f"wl_crit: {len(entries)} entries, {differences} different; "
        f"search {wall['search']:.1f}s, reference {wall['reference']:.1f}s, "
        f"batched {wall['batched']:.1f}s; steps accepted {steps['accepted']} "
        f"(+{steps['resumed']} resumed), reference {steps['reference']}",
        flush=True,
    )
    return differences


def timed_metric(entry: dict) -> tuple[float, float]:
    start = time.perf_counter()
    value = evaluate_metric(
        entry["metric"], entry["design"], entry["vdd"],
        beta=entry["beta"], corner=entry["corner"],
    )
    return value, time.perf_counter() - start


def check_stopped_metrics(cells: dict) -> int:
    entries = sorted(
        (k, e) for k, e in cells.items() if e["metric"] in STOPPED_METRICS
    )
    differences = 0
    wall = {"stopped": 0.0, "full": 0.0}
    for key, entry in entries:
        value, s = timed_metric(entry)
        with full_length():
            reference, ref_s = timed_metric(entry)
        wall["stopped"] += s
        wall["full"] += ref_s
        same = _bytes(value) == _bytes(reference)
        differences += not same
        print(
            f"{'ok  ' if same else 'DIFF'} {key:16s} {entry['metric']:11s} "
            f"{entry['design']:9s} vdd={entry['vdd']} beta={entry['beta']} "
            f"corner={entry['corner']} value={value!r} reference={reference!r} "
            f"golden={'=' if value == entry['value'] else '!='} {s:.2f}s/{ref_s:.2f}s",
            flush=True,
        )
    print(
        f"{'/'.join(STOPPED_METRICS)}: {len(entries)} entries, {differences} different; "
        f"stopped {wall['stopped']:.1f}s, full length {wall['full']:.1f}s",
        flush=True,
    )
    return differences


def check_mc_study() -> int:
    config = EngineConfig(jobs=1, retries=0, root_seed=MC_SEED, collect_telemetry=False)
    start = time.perf_counter()
    result = MonteCarloBatch(MC_SPEC).run(MC_SAMPLES, seed=MC_SEED, engine=config)
    wall = time.perf_counter() - start
    different = []
    for k, (value, outcome) in enumerate(zip(result.samples, result.report.outcomes)):
        payload = (
            MC_SPEC,
            sample_scales(MC_SPEC.variation, MC_SEED, k, MC_SPEC.transistor_count),
        )
        ctx = TaskContext(index=k, seed=derive_seed(MC_SEED, k), attempt=0)
        scalar = evaluate_mc_sample(payload, ctx)
        with full_length():
            full = evaluate_mc_sample(payload, ctx)
        if not (
            outcome.status == "ok"
            and _bytes(value) == _bytes(scalar) == _bytes(full)
        ):
            different.append(str(k))
    print(
        f"{'DIFF' if different else 'ok  '} batched MC {MC_SPEC.metric} "
        f"assist={MC_SPEC.assist} beta={MC_SPEC.beta} {MC_SAMPLES} samples, "
        f"{len(different)} different {' '.join(different)} {wall:.2f}s",
        flush=True,
    )
    return len(different)


def main() -> int:
    cells = json.loads(GOLDEN.read_text())["cells"]
    differences = check_wlcrit(cells) + check_stopped_metrics(cells) + check_mc_study()
    print(f"{differences} different")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
