"""CI smoke test for the characterization store: build, kill, resume, query.

Exercises the store behaviours CI must never regress, end to end and
through the real CLI (separate processes, real SIGKILL):

1. a cold ``repro char build`` of a tiny grid is killed mid-build once
   the engine checkpoint shows partial progress;
2. the rerun completes only the remainder (fewer points simulated than
   the spec total) and leaves every entry present;
3. a third build simulates nothing — the store is warm;
4. ``repro char query`` serves an exact stored point and an
   interpolated midpoint from the same store;
5. a traced build (``--trace-dir``/``--metrics-out``) of a small fresh
   grid produces a merged ``trace.json`` with one span per simulated
   point and a run manifest (with its Prometheus text) that joins it by
   trace id; everything lands in ``SMOKE_ARTIFACTS`` (when set) for CI
   upload.

Run with ``PYTHONPATH=src python scripts/char_smoke.py``; exits
non-zero on the first violated expectation.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPEC = {
    "name": "smoke",
    "designs": ["cmos", "proposed"],
    "vdds": [0.5, 0.6, 0.7, 0.8],
    "metrics": ["drnm", "hold_power"],
}
TOTAL_ENTRIES = 16  # 2 designs x 4 vdds x 2 metrics

#: Small, cheap (DC-only) grid for the traced-build step.
TRACE_SPEC = {
    "name": "smoke_trace",
    "designs": ["cmos"],
    "vdds": [0.5, 0.6],
    "metrics": ["hold_power"],
}
TRACE_ENTRIES = 2


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(1)


def cli(*args: str, store: Path, spec: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "char", *args,
         "--spec", str(spec), "--store", str(store)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def simulated_count(build_output: str) -> int:
    match = re.search(r"(\d+) simulated", build_output)
    check(match is not None, f"build output reports a simulated count: {build_output!r}")
    return int(match.group(1))


def checkpoint_lines(store: Path) -> int:
    checkpoints = list((store / "checkpoints").glob("*.jsonl"))
    if not checkpoints:
        return 0
    return sum(len(p.read_text().splitlines()) for p in checkpoints)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="char_smoke_") as tmp:
        tmp_path = Path(tmp)
        store = tmp_path / "char"
        spec = tmp_path / "smoke.json"
        spec.write_text(json.dumps(SPEC))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        print("1. SIGKILL a cold build once the checkpoint shows progress")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "char", "build",
             "--spec", str(spec), "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            # Outcome lines follow the checkpoint's header line.
            if checkpoint_lines(store) >= 3:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        killed = proc.poll() is None
        if killed:
            proc.kill()
        proc.wait()
        check(killed, "build was killed mid-flight")
        progress = checkpoint_lines(store)
        check(progress >= 3, f"checkpoint recorded partial progress ({progress} lines)")

        print("2. rerun completes only the remainder")
        done = cli("build", store=store, spec=spec)
        check(done.returncode == 0, "resumed build exits 0")
        resumed_computed = simulated_count(done.stdout)
        check(
            0 < resumed_computed < TOTAL_ENTRIES,
            f"remainder only: {resumed_computed}/{TOTAL_ENTRIES} simulated",
        )

        status = cli("status", store=store, spec=spec)
        check(
            f"{TOTAL_ENTRIES}/{TOTAL_ENTRIES} entries present" in status.stdout,
            "status reports every entry present",
        )

        print("3. warm rebuild simulates nothing")
        warm = cli("build", store=store, spec=spec)
        check(warm.returncode == 0, "warm build exits 0")
        check(simulated_count(warm.stdout) == 0, "0/16 simulated on the warm pass")

        print("4. queries served from the store")
        exact = cli(
            "query", "drnm", "--design", "proposed", "--vdd", "0.8", "--json",
            store=store, spec=spec,
        )
        check(exact.returncode == 0, "exact query exits 0")
        payload = json.loads(exact.stdout)
        check(payload["method"] == "exact", "stored point served exactly")

        mid = cli(
            "query", "hold_power", "--design", "cmos", "--vdd", "0.75", "--json",
            store=store, spec=spec,
        )
        check(mid.returncode == 0, "midpoint query exits 0")
        payload = json.loads(mid.stdout)
        check(payload["method"] in ("linear", "cubic"), "midpoint interpolated")
        check(payload["value"] > 0.0, "interpolated hold power is positive")

        print("5. traced build exports a merged trace and its run manifest")
        artifacts = Path(os.environ.get("SMOKE_ARTIFACTS", tmp_path / "artifacts"))
        artifacts.mkdir(parents=True, exist_ok=True)
        trace_spec = tmp_path / "smoke_trace.json"
        trace_spec.write_text(json.dumps(TRACE_SPEC))
        traced = cli(
            "build",
            "--trace-dir", str(artifacts / "char_trace"),
            "--metrics-out", str(artifacts / "char_manifest.json"),
            store=tmp_path / "char_traced", spec=trace_spec,
        )
        check(traced.returncode == 0, "traced build exits 0")
        trace_file = artifacts / "char_trace" / "trace.json"
        check(trace_file.exists(), "merged trace.json written")
        spans = json.loads(trace_file.read_text())["spans"]
        task_spans = [s for s in spans if s.get("name") == "task"]
        check(
            len(task_spans) == TRACE_ENTRIES,
            f"one task span per simulated point ({len(task_spans)}/{TRACE_ENTRIES})",
        )
        manifest = json.loads((artifacts / "char_manifest.json").read_text())
        counters = manifest["telemetry"]["counters"]
        check(
            counters.get("char.points_computed") == TRACE_ENTRIES,
            "run manifest records the computed points",
        )
        check(
            manifest["trace_id"] in json.loads(trace_file.read_text())["trace_ids"],
            "run manifest joins the merged trace by trace id",
        )
        check(
            (artifacts / "char_manifest.prom").exists(),
            "Prometheus text written beside the manifest",
        )

    print("char smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
