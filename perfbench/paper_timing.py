"""Time the whole paper: every ``repro.experiments`` entry at default size.

A one-shot command, not part of the benchmark's runs.  From the root of
a checkout::

    python3 perfbench/paper_timing.py

Each experiment runs in a fresh process with the speed probe on and
reports raw and speed-corrected seconds.  It then runs again with the
layer spans of ``tracer.py`` (aggregated per span name, not kept) and
reports each layer's corrected self time and the residual against the
traced wall time.  The report goes to
``.perfbench_cache/paper_timing.json``; a full run takes tens of
minutes.
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

REPORT_PATH = common.CACHE_DIR / "paper_timing.json"


def time_one(experiment_id: str, layers: bool) -> dict:
    common.prepare_environment()
    import probe

    prober = probe.Probe().start()
    tracer = None
    from repro.experiments.runner import run_experiment

    if layers:
        from tracer import Tracer

        tracer = Tracer(keep_spans=False)
        tracer.install()
    t0 = time.perf_counter()
    run_experiment(experiment_id)
    t1 = time.perf_counter()
    prober.stop()
    if tracer is not None:
        tracer.uninstall()
    samples = prober.samples()
    out = {"raw_s": t1 - t0, "corrected_s": samples.corrected(t0, t1)}
    if tracer is not None:
        speed = out["corrected_s"] / (t1 - t0 - samples.probe_time(t0, t1))
        layer_self = tracer.layer_self()
        out["layers_s"] = {k: v * speed for k, v in sorted(layer_self.items())}
        out["residual_frac"] = 1.0 - sum(layer_self.values()) / (t1 - t0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--layers", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(time_one(args.one, args.layers)))
        return 0

    common.prepare_environment()
    from repro.experiments.runner import REGISTRY

    ids = list(REGISTRY)
    report = {}
    for experiment_id in ids:
        entry = {}
        for layers in (False, True):
            cmd = [sys.executable, __file__, "--one", experiment_id] + (
                ["--layers"] if layers else [])
            proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                                  env={**os.environ, **common.BENCH_ENV})
            if proc.returncode != 0:
                entry["error"] = proc.stderr.strip().splitlines()[-1:]
                break
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if layers:
                entry["traced"] = result
            else:
                entry.update(result)
        report[experiment_id] = entry
        print(experiment_id, json.dumps(entry), flush=True)
    done = [e for e in report.values() if "corrected_s" in e]
    report["total"] = {"raw_s": sum(e["raw_s"] for e in done),
                       "corrected_s": sum(e["corrected_s"] for e in done),
                       "experiments": len(done), "failed": len(report) - len(done)}
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["total"]))
    return 0 if len(done) == len(ids) else 1


if __name__ == "__main__":
    raise SystemExit(main())
