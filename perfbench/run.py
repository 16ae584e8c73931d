"""The repository's benchmark: one workload, one seed, one process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cell_metrics --seed 1 --seconds 12 --trace 0

Workloads: ``cell_metrics``, ``mc_batch``, ``array_column`` (see
``workloads.py``) and ``serve_mix`` (``serve_mix.py``).  The run sets
up (timed as ``setup_s``), runs ops closed-loop for ``--seconds``,
checks every output against ``golden.json`` and prints one JSON object
as its last line.  Every time is speed-corrected by the probe in
``probe.py``; raw seconds and the speed factor are printed on the line
before it as diagnostics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same ops twice, untraced and then with layer spans (``tracer.py``) and
the program's telemetry counters on, reports the per-layer metrics and
writes the spans to ``.perfbench_cache/traces/`` in the
``repro.obs.trace/v1`` schema.  ``--setup-only`` (used internally)
only sets up and prints the corrected set-up time.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

RUN_DELAY = common.RunDelay()
T_START_WAIT = RUN_DELAY()

SETUP_REPEATS = 2
"""Extra set-ups per untraced run, each in a fresh process; ``setup_s``
is the median of these and the run's own set-up."""

DETERMINISM_COUNTERS = ("newton.iterations", "transient.steps_accepted",
                        "tables.eval_points", "batch.ticks", "char.points_computed")


def declared_units() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` metric units from ``BENCHMARK.json``."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repro benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mark() -> tuple[float, float]:
    """``(perf_counter, run-queue wait)`` of the main thread now."""
    return time.perf_counter(), RUN_DELAY()


def between(timeline, a: tuple, b: tuple) -> float:
    """Corrected seconds between two :func:`mark` results."""
    return timeline.corrected(a[0], b[0], b[1] - a[1])


def set_up(workload) -> dict:
    marks = {"start": (T_START, T_START_WAIT)}
    workload.import_layers()
    marks["imported"] = mark()
    workload.build_tables()
    marks["tables"] = mark()
    workload.prepare()
    marks["prepared"] = mark()
    return marks


def excluded_seconds(timeline, workload) -> float:
    """Corrected seconds of the one-time build inside set-up (serve_mix's
    store lookup and build, in its tables step), which is not set-up."""
    return sum(timeline.corrected(t0, t1) for t0, t1 in getattr(workload, "excluded", ()))


def setup_metrics(timeline, workload, marks: dict) -> dict:
    return {
        "setup.import_s": between(timeline, marks["start"], marks["imported"]),
        "setup.tables_s": between(timeline, marks["imported"], marks["tables"])
        - excluded_seconds(timeline, workload),
        "setup.prepare_s": between(timeline, marks["tables"], marks["prepared"]),
    }


def setup_seconds(timeline, workload, marks: dict) -> float:
    """Corrected set-up time, less any one-time build inside it."""
    return (between(timeline, marks["start"], marks["prepared"])
            - excluded_seconds(timeline, workload))


def repeat_setups(args, count: int) -> list[float]:
    """Corrected set-up seconds of ``count`` fresh processes, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, env={**os.environ, **common.BENCH_ENV},
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def closed_loop(workload, until: float) -> list:
    """Run rounds back to back; stop after the round that ends past ``until``."""
    ops = []
    r = 0
    while True:
        for op in workload.round(r):
            run_op(op, workload.run)
            ops.append(op)
        r += 1
        if time.perf_counter() >= until:
            return ops


def run_op(op, fn) -> None:
    """Run one op, recording its window, run-queue wait and outcome."""
    w0 = RUN_DELAY()
    op.t0 = time.perf_counter()
    try:
        op.value = fn(op)
    except Exception as exc:  # noqa: BLE001 — a raising op is a failed op
        op.error = f"{type(exc).__name__}: {exc}"
    op.t1 = time.perf_counter()
    op.waited = RUN_DELAY() - w0


def check_all(workload, ops) -> list[str]:
    failures = []
    for op in ops:
        if op.error is None:
            try:
                reason = workload.check(op)
            except Exception as exc:  # noqa: BLE001 — a check that raises fails the op
                reason = f"{op.key}: check raised {type(exc).__name__}: {exc}"
            if reason is None:
                continue
            op.error = reason
        failures.append(op.error)
    return failures


def determinism(workload, ops) -> dict:
    """The seed's op-list and output digests (round 0, which every run
    of the seed executes) and the program's work counters from an
    untimed replay of some round-0 ops with telemetry on.  A replayed
    output that differs from its timed run is listed as a mismatch."""
    from repro.telemetry import core as telemetry

    from workloads import digest

    round0 = [op for op in ops if op.round == 0]
    session = telemetry.enable()
    try:
        replayed = [(workload.run(op), timed) for op, timed in workload.replay(round0)]
    finally:
        telemetry.disable()
    return {
        "op_digest": digest([(op.key, op.args) for op in round0]),
        "output_digest": digest([(op.key, op.value) for op in round0]),
        "work_counters": {name: session.counters.get(name, 0) for name in DETERMINISM_COUNTERS},
        "replay_mismatches": [timed.key for value, timed in replayed
                              if not workload.replay_matches(value, timed)],
    }


def op_metrics(workload, timeline, ops) -> dict:
    corrected = [timeline.corrected(op.t0, op.t1, op.waited) for op in ops]
    units = sum(op.size for op in ops)
    return {
        "throughput": units / sum(corrected),
        "p50_ms": 1e3 * workload.p50_s(corrected, ops),
        "corrected_s": sum(corrected),
        "raw_s": sum(op.t1 - op.t0 for op in ops),
    }


def layer_metrics(workload, timeline, spans, counters, ops, untraced_s, traced_s) -> dict:
    """The per-layer metrics of a traced run (see README.md)."""
    self_ref: dict[str, float] = {}
    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    unknowns = []
    for _, _, name, t0, t1, _, self_s, fields in spans:
        self_ref[name] = self_ref.get(name, 0.0) + self_s * timeline.speed(t0, t1)
        calls[name] = calls.get(name, 0) + 1
        if fields:
            points[name] = points.get(name, 0) + fields.get("points", 0)
            if "unknowns" in fields:
                unknowns.append(fields["unknowns"])

    def s(*names):
        return sum(self_ref.get(n, 0.0) for n in names)

    def n(name):
        return calls.get(name, 0)

    def c(name):
        return counters.get(name, 0)

    stamps, reuses = c("newton.jacobian_stamps"), c("newton.jacobian_reuses")
    accepted, rejected = c("transient.steps_accepted"), c("transient.steps_rejected")
    wl_results = sum(workload.wlcrit_results(op) for op in ops)
    wl_sims = sum(op.extra.get("transient.simulations", 0) for op in ops
                  if workload.wlcrit_results(op))
    op_wall = sum(t1 - t0 for _, _, name, t0, t1, _, _, _ in spans if name == "bench.op")
    layer_raw = sum(self_s for _, _, name, _, _, _, self_s, _ in spans if name != "bench.op")
    return {
        "devices.eval_calls": n("devices.eval"),
        "devices.eval_points": points.get("devices.eval", 0),
        "devices.eval_s": s("devices.eval"),
        "devices.table_builds": n("devices.table_build"),
        "devices.table_build_s": s("devices.table_build"),
        "mna.assemble_calls": n("mna.assemble"),
        "mna.residual_calls": n("mna.residual"),
        "mna.self_s": s("mna.assemble", "mna.residual"),
        "sparse.assemble_calls": n("sparse.assemble") + n("sparse.residual"),
        "sparse.self_s": s("sparse.assemble", "sparse.residual"),
        "sparse.factor_calls": n("sparse.factor"),
        "sparse.lu_s": s("sparse.factor", "sparse.solve"),
        "newton.solves": c("newton.solves"),
        "newton.iterations": c("newton.iterations"),
        "newton.reuse_ratio": reuses / (stamps + reuses) if stamps + reuses else 0.0,
        "newton.self_s": s("newton.solve", "dcop.solve_dc"),
        "lu.factor_calls": n("lu.factor"),
        "lu.solve_calls": n("lu.solve"),
        "lu.self_s": s("lu.factor", "lu.solve"),
        "transient.sims": c("transient.simulations"),
        "transient.steps_accepted": accepted,
        "transient.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "transient.self_s": s("transient.simulate"),
        "batch.ticks": c("batch.ticks"),
        "batch.member_assemblies": c("batch.member_assemblies"),
        "batch.self_s": s("batch.run"),
        "sram.bench_builds": n("sram.testbench"),
        "sram.build_s": s("sram.testbench"),
        "compiler.compile_s": s("compiler.compile"),
        "compiler.unknowns": statistics.mean(unknowns) if unknowns else 0,
        "analysis.self_s": s("analysis.metric", "analysis.mc_task"),
        "analysis.wlcrit_sims_per_result": wl_sims / wl_results if wl_results else 0.0,
        "engine.tasks": c("engine.tasks_total"),
        "engine.retries": c("engine.retries"),
        "engine.failed": c("engine.tasks_failed"),
        "engine.self_s": s("engine.run_tasks"),
        "engine.checkpoint_s": s("engine.checkpoint"),
        "char.query_calls": n("char.query"),
        "char.query_s": s("char.query"),
        "char.append_s": s("char.append"),
        "char.compile_s": s("char.compile"),
        "char.points_computed": c("char.points_computed"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "bench.layer_residual_frac": 1.0 - layer_raw / op_wall if op_wall else 0.0,
    }


def traced_phase(workload, n_rounds: int):
    """Replay ``n_rounds`` rounds with spans and telemetry counters on."""
    from repro.telemetry import core as telemetry

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    session = telemetry.enable()
    try:
        ops = []
        for r in range(n_rounds):
            for op in workload.round(r):
                before = dict(session.counters)
                tracer.trace_id = f"op{len(ops)}"
                run_op(op, tracer.wrap(workload.run, "bench.op"))
                op.extra = {k: v - before.get(k, 0) for k, v in session.counters.items()}
                ops.append(op)
    finally:
        telemetry.disable()
        tracer.uninstall()
    return tracer, dict(session.counters), ops


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    common.prepare_environment()

    import probe

    prober = probe.Probe().start()
    if args.workload == "serve_mix":
        import serve_mix

        workload = serve_mix.ServeMix(args.seed, traced=bool(args.trace))
    else:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            known = ", ".join(sorted([*workloads.WORKLOADS, "serve_mix"]))
            print(f"unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, traced=bool(args.trace))
    try:
        marks = set_up(workload)
        if args.setup_only:
            prober.stop()
            timeline = prober.samples()
            if args.workload == "serve_mix":
                daemon = workload.stop_daemon()
                timeline = timeline.merged(probe.Samples(daemon["starts"], daemon["durations"]))
            print(json.dumps({"setup_s": setup_seconds(timeline, workload, marks)}))
            return 0
        if args.workload == "serve_mix":
            return run_serve(args, workload, prober, marks)
        return run_closed_loop(args, workload, prober, marks)
    finally:
        workload.close()


def run_closed_loop(args, workload, prober, marks) -> int:
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = closed_loop(workload, marks["prepared"][0] + seconds)
    rss_mb = peak_rss_mb()  # before the checks and the telemetry replay
    n_rounds = ops[-1].round + 1
    traced = traced_phase(workload, n_rounds) if args.trace else None
    prober.stop()
    timeline = prober.samples()
    measured = op_metrics(workload, timeline, ops)
    all_ops = ops + (traced[2] if traced else [])
    failures = check_all(workload, all_ops)
    report = determinism(workload, ops)
    failures += [f"{key}: replay differs from the timed run" for key in report["replay_mismatches"]]
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "rounds": n_rounds, "ops": len(ops),
        **report, **health(prober, measured["raw_s"], measured["corrected_s"]),
        "failures": failures[:10],
    }
    if traced:
        tracer, counters, ops_t = traced
        measured_t = op_metrics(workload, timeline, ops_t)
        metrics = layer_metrics(workload, timeline, tracer.spans, counters, ops_t,
                                measured["corrected_s"], measured_t["corrected_s"])
        metrics.update(bench_metrics(timeline, workload, marks, diagnostics,
                                     measured["raw_s"] + measured_t["raw_s"]))
        write_trace(args, diagnostics, tracer.spans)
    else:
        metrics = end_to_end(args, timeline, workload, marks, diagnostics,
                             sum(op.size for op in ops), measured["throughput"],
                             measured["p50_ms"], rss_mb)
    emit(diagnostics, metrics, bool(traced), not failures, sum(op.size for op in all_ops),
         sum(op.size for op in all_ops if op.error))
    return 0


def run_serve(args, workload, prober, marks) -> int:
    """serve_mix: reads and misses against one daemon (see serve_mix.py)."""
    import probe

    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = [workload.measure(seconds) + (workload.stop_daemon(),)]
    if args.trace:
        workload.start_daemon(traced=True)
        phases.append(workload.measure(seconds) + (workload.stop_daemon(),))
    prober.stop()
    timeline = prober.samples()
    for _, _, daemon in phases:
        timeline = timeline.merged(probe.Samples(daemon["starts"], daemon["durations"]))
    all_reads = [op for reads, _, _ in phases for op in reads]
    all_misses = [op for _, misses, _ in phases for op in misses]
    workload.check_reads(all_reads)
    workload.check_misses(all_misses)

    def corrected(ops):
        return [timeline.corrected(op.t0, op.t1, op.waited) for op in ops]

    reads, misses, daemon = phases[0]
    read_s, miss_s = corrected(reads), corrected(misses)
    raw_s = sum(op.t1 - op.t0 for op in reads)
    counters = daemon["status"]["counters"]
    failures = [op.error for op in all_reads + all_misses if op.error]
    failed_ops = len(failures)
    if workload.pool_ran_out:
        failures.append("the miss pool ran out before the deadline, so part of the reads "
                        "ran without backfill beside them")
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "reads": len(reads),
        "misses": len(misses), "miss_pool_left": len(workload.miss_pool),
        "op_digest": workload.op_digest,
        "work_counters": {k: counters.get(k, 0) for k in DETERMINISM_COUNTERS},
        "work_counters_note": "serve_mix counts depend on how many misses the wall-clock "
                              "window admits and on the daemon's coalescing window",
        **health(prober, raw_s, sum(read_s)),
        "client_wait_frac": sum(op.waited for op in reads) / raw_s,
        "miss_p50_ms": 1e3 * statistics.median(miss_s) if miss_s else None,
        "read_p99_ms": _p99_ms(read_s),
        "failures": failures[:10],
    }
    if args.trace:
        reads_t, misses_t, traced = phases[1]
        metrics = layer_metrics(workload, timeline, traced["spans"], traced["status"]["counters"],
                                [], sum(read_s) / len(reads),
                                sum(corrected(reads_t)) / len(reads_t))
        metrics.update(serve_layer_metrics(timeline, traced, reads_t))
        metrics["serve.miss_p50_ms"] = diagnostics["miss_p50_ms"] or 0.0
        metrics["serve.read_p99_ms"] = diagnostics["read_p99_ms"] or 0.0
        metrics.update(bench_metrics(timeline, workload, marks, diagnostics,
                                     raw_s + sum(op.t1 - op.t0 for op in reads_t)))
        write_trace(args, diagnostics, traced["spans"])
    else:
        metrics = end_to_end(args, timeline, workload, marks, diagnostics, len(reads),
                             len(reads) / sum(read_s), 1e3 * statistics.median(read_s),
                             daemon["peak_rss_mb"])
    emit(diagnostics, metrics, args.trace, not failures, len(all_reads) + len(all_misses),
         failed_ops)
    return 0


def health(prober, raw_s: float, corrected_s: float) -> dict:
    """Diagnostics of the correction itself."""
    return {
        "raw_wall_s": raw_s,
        "speed_factor": corrected_s / raw_s,
        "probe_overhead_frac": sum(prober.durations) / (time.perf_counter() - T_START),
    }


def end_to_end(args, timeline, workload, marks, diagnostics, n_ops, throughput, p50_ms,
               rss_mb) -> dict:
    setups = [setup_seconds(timeline, workload, marks)] + repeat_setups(args, SETUP_REPEATS)
    diagnostics["setup_s_samples"] = setups
    diagnostics["sample_counts"] = {"setup_s": len(setups), "throughput": n_ops,
                                    "p50_ms": n_ops, "peak_rss_mb": 1}
    return {"setup_s": statistics.median(setups), "throughput": throughput,
            "p50_ms": p50_ms, "peak_rss_mb": rss_mb}


def bench_metrics(timeline, workload, marks, diagnostics, raw_s: float) -> dict:
    """The set-up breakdown and bench-health metrics of a traced run."""
    return {
        **setup_metrics(timeline, workload, marks),
        "bench.speed_factor": diagnostics["speed_factor"],
        "bench.probe_overhead_frac": diagnostics["probe_overhead_frac"],
        "bench.raw_wall_s": raw_s,
    }


def write_trace(args, diagnostics, spans) -> None:
    from tracer import write_trace as write

    path = common.CACHE_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
    write(path, spans)
    diagnostics["trace_file"] = str(path.relative_to(common.ROOT))


def emit(diagnostics, metrics, traced: bool, correct: bool, attempted: int, failed: int) -> None:
    """Print the diagnostics line and the result line.  A traced run
    reports 0 for the per-layer metrics of layers that did not run."""
    end_to_end_units, per_layer_units = declared_units()
    units = per_layer_units if traced else end_to_end_units
    if traced:
        metrics = {name: metrics.get(name, 0.0) for name in units}
    print(json.dumps({"diagnostics": diagnostics}))
    print(result_line(correct, attempted, failed, metrics, units))


def _p99_ms(latencies) -> float | None:
    """p99 in ms, only when at least ten samples lie beyond it."""
    if len(latencies) < 1000:
        return None
    return 1e3 * statistics.quantiles(latencies, n=100)[98]


def serve_layer_metrics(timeline, daemon: dict, reads) -> dict:
    """Daemon- and client-side serve metrics of the traced phase."""
    counters = daemon["status"]["counters"]
    backfill = daemon["status"]["backfill"]
    spans = daemon["spans"]
    hits, miss_count = counters.get("serve.hits", 0), counters.get("serve.misses", 0)
    wall_us = [op.extra["wall_us"] for op in reads if not op.error]
    transport = [1e6 * (op.t1 - op.t0) - op.extra["wall_us"] for op in reads if not op.error]
    submits = sorted(t0 for _, _, name, t0, _, _, _, _ in spans if name == "serve.submit")
    builds = sorted(t0 for _, _, name, t0, _, _, _, _ in spans if name == "engine.run_tasks")
    waits = []
    for t in submits:
        later = [b for b in builds if b >= t]
        if later:
            waits.append(1e3 * (later[0] - t))
    gaps = [timeline.corrected(a.t1, b.t1) for a, b in zip(reads, reads[1:])]
    covered = sum(transport) / 1e6 + sum(
        self_s for _, _, name, _, _, _, self_s, _ in spans
        if name in ("serve.answer", "serve.reload", "char.query"))
    read_wall = sum(op.t1 - op.t0 for op in reads)
    return {
        "serve.hit_ratio": hits / (hits + miss_count) if hits + miss_count else 0.0,
        "serve.answer_p50_us": statistics.median(wall_us) if wall_us else 0.0,
        "serve.transport_p50_us": statistics.median(transport) if transport else 0.0,
        "serve.backfill_builds": backfill["batches_completed"],
        "serve.coalesce_ratio": (backfill["points_completed"] / backfill["batches_completed"]
                                 if backfill["batches_completed"] else 0.0),
        "serve.backfill_wait_ms": statistics.median(waits) if waits else 0.0,
        "serve.read_stall_ms": 1e3 * max(gaps) if gaps else 0.0,
        "bench.layer_residual_frac": 1.0 - covered / read_wall if read_wall else 0.0,
    }


if __name__ == "__main__":
    raise SystemExit(main())
