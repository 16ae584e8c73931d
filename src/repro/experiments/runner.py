"""Experiment registry and command-line runner.

``python -m repro.experiments fig04`` regenerates one paper artifact;
``python -m repro.experiments all`` regenerates everything (slow — the
Monte-Carlo figures run hundreds of transient bisections);
``python -m repro.experiments --list`` prints the registry.
``repro experiment ...`` hands its whole command line to :func:`main`,
so both entry points take exactly the flags below, from one parser.

Observability flags: ``--profile`` collects solver telemetry and
writes the run manifest ``<id>_manifest.json`` (wall time,
Newton/fallback/step statistics, result checksum, trace id) with its
Prometheus text ``<id>_manifest.prom`` next to the results;
``--trace-dir DIR`` streams cross-process span trees and session
events (scheduler, workers, runner) into DIR and merges them into
``DIR/trace.json`` for ``repro trace`` (one subdirectory per experiment
when several run in one invocation); ``--log-level debug`` widens which
events the trace records.  ``repro diag`` summarizes saved manifests.
``--verify`` re-checks every accepted solver result against the
retained reference implementations while the experiment runs (see
:mod:`repro.verify`).

Batch-engine flags: ``--jobs J`` fans an experiment's work across J
worker processes (bit-identical to ``--jobs 1``).  It reaches the
Monte-Carlo figures (``fig09``/``fig10``) and every experiment that is
a list of cell measurements (``fig04``, ``fig06``, ``fig07``,
``fig08``, ``fig11``, ``fig12``, ``tab_power``,
``abl_assist_fraction``, all through
:func:`repro.char.query.evaluate_points`); both run their work as
stacked Newton batches, in chunks sized from the work and ``--jobs``.
For the Monte-Carlo figures, ``--samples N`` sets the sample count,
``--seed S`` the root seed, and ``--resume`` continues an interrupted
run from its JSONL checkpoints under ``<output-dir>/checkpoints/``.
Experiments that do not take a flag ignore it with a note.

``--char-store DIR`` serves grid points from a pre-built
characterization store (:mod:`repro.char`); missing points are
simulated with :func:`repro.char.metrics.metric_gen`, the procedure
the store's values came from.  Experiments without a servable grid
ignore the flag with a note.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from repro.experiments import (
    abl_assist_fraction,
    abl_static_vs_dynamic,
    ext_array_area,
    ext_array_read,
    ext_energy_scaling,
    ext_half_select,
    ext_miller_coupling,
    ext_read_path,
    ext_retention,
    fig02_tfet_iv,
    fig04_cell_stability,
    fig06_write_assist,
    fig07_read_assist,
    fig08_assist_tradeoff,
    fig09_wa_variation,
    fig10_ra_variation,
    fig11_delay,
    fig12_margins,
    table_area,
    table_static_power,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.io import save_json
from repro.telemetry import core as telemetry
from repro.telemetry.manifest import manifest_path, recorded_run
from repro.verify import core as verify

__all__ = ["REGISTRY", "run_experiment", "main", "DEFAULT_MANIFEST_DIR"]

DEFAULT_MANIFEST_DIR = "results"
"""Where run manifests land when ``--output-dir`` is not given."""

REGISTRY: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "fig02": (fig02_tfet_iv.run, "TFET forward/reverse I-V characteristics"),
    "fig04": (fig04_cell_stability.run, "DRNM and WL_crit vs beta"),
    "fig06": (fig06_write_assist.run, "write-assist techniques vs beta"),
    "fig07": (fig07_read_assist.run, "read-assist techniques vs beta"),
    "fig08": (fig08_assist_tradeoff.run, "WL_crit vs DRNM trade-off"),
    "fig09": (fig09_wa_variation.run, "Monte-Carlo variation under WA"),
    "fig10": (fig10_ra_variation.run, "Monte-Carlo variation under RA"),
    "fig11": (fig11_delay.run, "write/read delay vs V_DD"),
    "fig12": (fig12_margins.run, "margins vs V_DD"),
    "tab_power": (table_static_power.run, "static power comparison"),
    "tab_area": (table_area.run, "cell area comparison"),
    # Extensions beyond the paper's artifacts:
    "abl_static_dynamic": (
        abl_static_vs_dynamic.run,
        "ablation: static butterfly SNM vs dynamic DRNM",
    ),
    "abl_assist_fraction": (
        abl_assist_fraction.run,
        "ablation: assist strength vs the paper's fixed 30 %",
    ),
    "ext_half_select": (
        ext_half_select.run,
        "extension: half-selected-cell read stability",
    ),
    "ext_miller": (
        ext_miller_coupling.run,
        "extension: TFET Miller boost on the storage nodes",
    ),
    "ext_energy": (
        ext_energy_scaling.run,
        "extension: access energy and standby power vs V_DD",
    ),
    "ext_retention": (
        ext_retention.run,
        "extension: data-retention voltage and standby floor",
    ),
    "ext_read_path": (
        ext_read_path.run,
        "extension: minimum sense delay with an offset latch",
    ),
    "ext_array_read": (
        ext_array_read.run,
        "extension: compiled-array access path vs the analytic fig11 model",
    ),
    "ext_array_area": (
        ext_array_area.run,
        "extension: macro area from the compiled census vs tab_area's model",
    ),
}


def run_experiment(
    experiment_id: str,
    *,
    profile: bool = False,
    log_level: str | None = None,
    trace_dir: str | Path | None = None,
    output_dir: str | Path | None = None,
    verify_run: bool = False,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment by its registry id.

    Telemetry options: ``profile`` collects solver statistics and
    writes the run manifest (and its ``.prom`` beside it) into
    ``output_dir`` (default ``results/``); ``log_level`` sets the event
    threshold (implies collection).  ``output_dir`` additionally saves
    the result table as ``<id>.json``.

    ``trace_dir`` turns on the cross-process trace pipeline
    (:mod:`repro.obs`, implies collection): a run-level trace id is
    minted here (the manifest's ``trace_id``), threaded through the
    engine into every worker for experiments whose ``run`` takes
    ``trace_dir``/``trace_id``, and the per-process sinks — span
    records and session events — are merged into
    ``<trace_dir>/trace.json`` (rendered by ``repro trace``).

    ``verify_run`` executes the whole experiment under a
    :mod:`repro.verify` session: every converged Newton solution,
    transient step, and (periodically) table evaluation is re-checked
    against the retained reference implementations, and the first
    violation raises.  Engine-backed experiments inherit the session
    in their forked workers, so Monte-Carlo samples are audited too —
    a worker-side violation fails its task, though the audit *counts*
    stay in the worker process.

    Remaining keyword arguments (solver knobs, sweeps like
    ``betas=``/``vdd=``) are forwarded verbatim to the experiment's
    ``run`` function.
    """
    if experiment_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    run, title = REGISTRY[experiment_id]

    trace_id = None
    if trace_dir is not None:
        trace_id = telemetry.mint_trace_id()
        # Engine-backed experiments thread the context into their
        # workers; experiments without engine plumbing still get the
        # runner-side spans and the merged trace, so no warning here.
        accepted = set(inspect.signature(run).parameters)
        if "trace_dir" in accepted:
            kwargs.setdefault("trace_dir", str(trace_dir))
            kwargs.setdefault("trace_id", trace_id)

    instrument = bool(profile or log_level or trace_dir)
    verify_ctx = verify.enabled() if verify_run else nullcontext(None)
    with verify_ctx as ver:
        if not instrument:
            result = run(**kwargs)
        else:
            with recorded_run(
                experiment_id,
                title,
                manifest_path(output_dir or DEFAULT_MANIFEST_DIR, experiment_id),
                span=f"experiment.{experiment_id}",
                log_level=log_level or "info",
                trace=telemetry.TraceContext(trace_id) if trace_id else None,
            ) as record:
                record.result = result = run(**kwargs)
            if trace_dir is not None:
                _flush_runner_trace(trace_dir, trace_id, record.session)
    if ver is not None:
        totals = ", ".join(f"{k}={n}" for k, n in sorted(ver.audits.items()))
        # A zero count has two honest explanations: the experiment did
        # no MNA solving in this process, or it fanned the work out to
        # forked pool workers — those inherit the session and enforce
        # violations (a violation fails its task), but their audit
        # counts stay in the worker.  Say so rather than printing a
        # bare zero that reads like verification silently did not run.
        note = (
            "" if ver.audits
            else " [no in-process solver activity; --jobs workers audit"
            " and enforce in their own sessions — use --jobs 1 for"
            " in-session counts]"
        )
        print(
            f"verify: {sum(ver.audits.values())} audits "
            f"({totals or 'none'}), {len(ver.violations)} violations{note}",
            file=sys.stderr,
        )

    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        save_json(result, directory / f"{experiment_id}.json")
    return result


def _flush_runner_trace(trace_dir, trace_id, session) -> None:
    """Stream the runner session's spans and events into the trace and
    re-merge.

    The engine already merged after each batch; merging again folds the
    runner's own ``experiment.<id>`` span (and the spans and events of
    inline solver work outside the engine) into the same ``trace.json``.
    """
    from repro.obs.sink import SpanSink
    from repro.obs.trace import merge_trace

    sink = SpanSink(trace_dir, role="runner", trace_id=trace_id)
    try:
        sink.write_session(session)
    finally:
        sink.close()
    merge_trace(trace_dir)


def main(argv: list[str] | None = None, prog: str = "repro.experiments") -> int:
    """The one experiment command line, behind both ``python -m
    repro.experiments`` and ``repro experiment`` (``prog`` names which
    in usage and error messages)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Regenerate the paper's tables and figures.",
        # No prefix matching: a deleted flag such as ``--trace`` must be
        # an error, not an abbreviation of ``--trace-dir``.
        allow_abbrev=False,
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (%s) or 'all'" % ", ".join(sorted(REGISTRY)),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment registry with descriptions and exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect solver telemetry and write a run manifest",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="stream cross-process span trees and events into DIR and merge "
        "them into DIR/trace.json (rendered by `repro trace`); engine-backed "
        "experiments trace every worker task",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(telemetry.LEVELS, key=telemetry.LEVELS.get),
        default=None,
        help="event threshold for the trace's events (implies telemetry)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-check every accepted solver result against the reference "
        "implementations (KCL, charge conservation, table kernels); "
        "the first violation aborts the run",
    )
    parser.add_argument(
        "--output-dir",
        metavar="DIR",
        default=None,
        help="directory for result JSON and run manifests (default: %s)"
        % DEFAULT_MANIFEST_DIR,
    )
    engine_group = parser.add_argument_group(
        "batch engine (--jobs: the Monte-Carlo figures and the cell-measurement "
        "sweeps; --samples/--seed/--resume: fig09/fig10)"
    )
    engine_group.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="Monte-Carlo sample count",
    )
    engine_group.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="root seed; per-sample seeds derive from (seed, index)",
    )
    engine_group.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help="worker processes (results are bit-identical at any J)",
    )
    engine_group.add_argument(
        "--resume",
        action="store_true",
        help="resume from the run's JSONL checkpoints instead of recomputing",
    )
    parser.add_argument(
        "--char-store",
        metavar="DIR",
        default=None,
        help="serve grid points from this characterization store "
        "(see `repro char build`); missing points fall back to simulation",
    )
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(eid) for eid in REGISTRY)
        for experiment_id in sorted(REGISTRY):
            print(f"{experiment_id.ljust(width)}  {REGISTRY[experiment_id][1]}")
        return 0
    if not args.experiment:
        parser.error("an experiment id (or 'all') is required unless --list is given")

    ids = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    engine_kwargs = _engine_kwargs(args)
    for experiment_id in ids:
        trace_dir = _trace_dir_for(args.trace_dir, experiment_id, multi=len(ids) > 1)
        result = run_experiment(
            experiment_id,
            profile=args.profile,
            log_level=args.log_level,
            trace_dir=trace_dir,
            output_dir=args.output_dir,
            verify_run=args.verify,
            **_supported_kwargs(experiment_id, engine_kwargs),
        )
        print(result.format())
        if args.profile or args.log_level or args.trace_dir:
            print(
                "manifest: %s"
                % manifest_path(args.output_dir or DEFAULT_MANIFEST_DIR, experiment_id)
            )
        if trace_dir is not None:
            print(f"trace: {Path(trace_dir) / 'trace.json'}")
        print()
    return 0


def _trace_dir_for(
    trace_dir: str | None, experiment_id: str, multi: bool
) -> str | Path | None:
    """Per-experiment trace directory for multi-experiment invocations
    (``all``): each experiment's sinks and merged trace stay separate."""
    if trace_dir is None or not multi:
        return trace_dir
    return Path(trace_dir) / experiment_id


def _engine_kwargs(args) -> dict:
    """The batch-engine kwargs the user explicitly set on the command line.

    The CLI always checkpoints engine-backed experiments (so a ^C run is
    resumable), placing the JSONL logs under the output directory.
    """
    kwargs = {}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    if args.resume:
        kwargs["resume"] = True
    if kwargs or args.resume:
        base = Path(args.output_dir or DEFAULT_MANIFEST_DIR)
        kwargs["checkpoint_dir"] = str(base / "checkpoints")
    if args.char_store is not None:
        kwargs["char_store"] = args.char_store
    return kwargs


def _supported_kwargs(experiment_id: str, kwargs: dict) -> dict:
    """Filter kwargs to the parameters the experiment's run() accepts.

    Warns (stderr) when an explicitly requested flag is dropped, so
    ``fig02 --samples 64`` is visibly a no-op rather than an error that
    would break ``all`` runs.
    """
    if not kwargs:
        return {}
    run, _ = REGISTRY[experiment_id]
    accepted = set(inspect.signature(run).parameters)
    supported = {k: v for k, v in kwargs.items() if k in accepted}
    dropped = [
        k.replace("_", "-")
        for k in ("samples", "seed", "jobs", "resume", "char_store")
        if k in kwargs and k not in accepted
    ]
    if dropped:
        print(
            f"note: {experiment_id} does not take --{', --'.join(dropped)}; ignored",
            file=sys.stderr,
        )
    return supported


if __name__ == "__main__":
    raise SystemExit(main())
