"""CI smoke test for the array compiler: compile, validate, kill, resume.

Exercises the compiled-array behaviours CI must never regress, end to
end and in minutes, not hours:

1. a small compiled column crosses the sparse-MNA threshold and
   ``make_system`` auto-selects the sparse assembler for it;
2. the simulated critical-path read delay agrees with the analytic
   fig11 model within the documented tolerance
   (``ext_array_read.DELAY_TOLERANCE``) on the same geometry;
3. a half-select disturb runs end to end through the real
   ``repro array measure`` CLI with ``--profile``: the victim holds its
   state and the written manifest records ``mna.sparse_selected`` > 0;
4. a real kill-and-resume cycle through the CLI: ``repro array sweep``
   is SIGKILLed once its engine checkpoint shows partial progress, and
   the ``--resume`` rerun replays the finished points and completes the
   remainder, exiting 0;
5. a ``--resume`` with an extended rows list replays every finished
   row count (tasks are keyed by row count, not list position), prints
   the same numbers for them, and measures only the new geometry.

Manifests and checkpoint files land in ``SMOKE_ARTIFACTS`` (when set)
for CI upload.

Run with ``PYTHONPATH=src python scripts/array_smoke.py``; exits
non-zero on the first violated expectation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Geometry for the compile + tolerance checks: big enough to cross the
#: sparse threshold, small enough to simulate in seconds.
ROWS, COLUMNS = 16, 4
VDD = 0.8


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(1)


def cli(*argv: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def checkpoint_lines(path: Path) -> int:
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())


def replayed_count(stdout: str) -> int:
    """The ``N resumed`` figure of a sweep's summary line."""
    for token in stdout.split("("):
        if "resumed" in token:
            return int(token.split("resumed")[0].split(",")[-1].strip())
    return 0


def main() -> int:
    from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD, make_system
    from repro.experiments.designs import proposed_cell, proposed_read_assist
    from repro.experiments.ext_array_read import DELAY_TOLERANCE
    from repro.sram.array import ArrayGeometry
    from repro.sram.compiler import compare_array, compile_array

    artifacts = Path(os.environ.get("SMOKE_ARTIFACTS", ""))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    with tempfile.TemporaryDirectory(prefix="array_smoke_") as tmp:
        outdir = artifacts if artifacts != Path("") else Path(tmp) / "artifacts"
        outdir.mkdir(parents=True, exist_ok=True)

        print(f"1. compile a {ROWS}x{COLUMNS} column, sparse auto-selection")
        cell = proposed_cell()
        compiled = compile_array(
            cell, ArrayGeometry(ROWS, COLUMNS), VDD,
            assist=proposed_read_assist(),
        )
        check(
            compiled.unknown_count >= DEFAULT_SPARSE_THRESHOLD,
            f"{compiled.unknown_count} unknowns cross the "
            f"{DEFAULT_SPARSE_THRESHOLD}-unknown threshold",
        )
        system = make_system(compiled.circuit)
        check(
            type(system).__name__ == "SparseMnaSystem",
            f"make_system picked {type(system).__name__}",
        )

        print("2. simulated read delay vs analytic fig11 model")
        comp = compare_array(
            cell, ArrayGeometry(ROWS, COLUMNS), VDD,
            assist=proposed_read_assist(),
        )
        ratio = comp.simulated_access_time / comp.analytic_access_time
        check(
            abs(ratio - 1.0) <= DELAY_TOLERANCE,
            f"delay ratio {ratio:.3f} within documented "
            f"+/-{DELAY_TOLERANCE:.0%} tolerance",
        )

        print("3. half-select disturb through the real CLI, with telemetry")
        measure = cli(
            "array", "measure", "--rows", str(ROWS), "--columns", str(COLUMNS),
            "--scenario", "half_select", "--profile",
            "--output-dir", str(outdir), env=env,
        )
        check(measure.returncode == 0, "repro array measure exits 0")
        check("disturb" in measure.stdout, "disturb margin reported")
        manifest_path = outdir / "array_measure_manifest.json"
        check(manifest_path.exists(), f"manifest written ({manifest_path.name})")
        manifest = json.loads(manifest_path.read_text())
        counters = manifest.get("telemetry", {}).get("counters", {})
        sparse_selected = counters.get("mna.sparse_selected", 0)
        check(
            sparse_selected > 0,
            f"mna.sparse_selected = {sparse_selected} in the manifest",
        )

        print("4. SIGKILL a sweep once the checkpoint shows progress")
        sweep_dir = outdir / "sweep"
        checkpoint = sweep_dir / "checkpoints" / "array_sweep.jsonl"
        sweep_args = [
            "array", "sweep", "--rows-list", "4,6,8,12", "--columns", "2",
            "--output-dir", str(sweep_dir),
        ]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *sweep_args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            # Outcome lines follow the checkpoint's header line.
            if checkpoint_lines(checkpoint) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        killed = proc.poll() is None
        if killed:
            proc.kill()
        proc.wait()
        check(killed, "sweep was killed mid-flight")
        progress = checkpoint_lines(checkpoint)
        check(progress >= 2, f"checkpoint recorded partial progress ({progress} lines)")

        print("5. --resume replays the finished points, completes the rest")
        resumed = cli(*sweep_args, "--resume", env=env)
        check(resumed.returncode == 0, "resumed sweep exits 0")
        check("resumed" in resumed.stdout, "resume summary printed")
        replayed = replayed_count(resumed.stdout)
        check(
            replayed >= 1,
            f"{replayed} outcome(s) replayed from the checkpoint",
        )
        check(
            resumed.stdout.count("FAILED") == 0,
            "every sweep point completed after resume",
        )

        print("6. --resume with an extended rows list replays by row count")
        extended = cli(
            "array", "sweep", "--rows-list", "4,6,8,12,16", "--columns", "2",
            "--output-dir", str(sweep_dir), "--resume", env=env,
        )
        check(extended.returncode == 0, "extended sweep exits 0")
        replayed = replayed_count(extended.stdout)
        check(replayed == 4, f"{replayed} of 4 finished row counts replayed")
        check(
            extended.stdout.splitlines()[2:6] == resumed.stdout.splitlines()[2:],
            "replayed rows print the numbers of the resumed run",
        )

    print("array smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
