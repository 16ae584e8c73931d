"""CI smoke test for the serve daemon: warm hits, real backfill,
kill-during-backfill resume, a non-finite answer, SIGTERM drain.

Everything runs through real processes — the daemon is a ``repro
serve start`` subprocess, queries go through the CLI verbs and the
wire protocol — and the kill is a real SIGKILL:

1. ``repro char build`` warms a tiny store (2 proposed-design DRNM
   points);
2. ``repro serve start`` comes up on a unix socket; ``repro serve
   status --json`` sees full coverage;
3. warm queries through ``repro serve query``: an exact point and an
   interpolated midpoint, both served from memory;
4. a cold query triggers a real backfill build and is answered; a
   retry is a warm hit;
5. four concurrent cold queries coalesce into one backfill batch; the
   daemon is SIGKILLed once the batch's engine checkpoint records
   partial progress;
6. a restarted daemon gets the same four queries re-issued: the batch
   coalesces into the same spec, resumes from the checkpoint, and
   ``serve status`` reports ``resumed > 0`` with fewer points
   recomputed than the batch total;
7. a non-finite answer crosses the wire: the inward-p cell's WL_crit
   at 0.8 V, beta 2.0 (it never flips, so it is ``inf``) backfills and
   then reads warm, and ``ServeClient.query`` returns ``math.inf``
   both times;
8. SIGTERM drains the daemon: exit code 0, socket removed, final run
   manifest and its Prometheus text written (into ``SMOKE_ARTIFACTS``
   when set, for CI upload), and the manifest's ``trace_id`` is one of
   the merged backfill trace's ``trace_ids``.

Run with ``PYTHONPATH=src python scripts/serve_smoke.py``; exits
non-zero on the first violated expectation.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.trace import load_trace  # noqa: E402
from repro.serve.client import ServeClient, ServeError  # noqa: E402

SPEC = {
    "name": "smoke_serve",
    "designs": ["proposed"],
    "vdds": [0.6, 0.8],
    "metrics": ["drnm"],
}

#: The coalescing batch for the kill/resume phases: slow enough
#: (one real transient sweep each) that SIGKILL lands mid-batch.
COLD_VDDS = [0.45, 0.48, 0.51, 0.54]

COALESCE_S = 1.5


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(1)


def cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def start_daemon(spec: Path, store: Path, sock: Path, artifacts: Path):
    # A SIGKILLed daemon leaves its socket file behind; remove it so
    # readiness below means "the NEW daemon is listening".
    sock.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--spec", str(spec), "--store", str(store), "--socket", str(sock),
         "--coalesce-s", str(COALESCE_S),
         "--metrics-out", str(artifacts / "serve_manifest.json"),
         "--trace-dir", str(artifacts / "serve_trace")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if sock.exists():
            try:
                with ServeClient(socket_path=sock, timeout_s=5.0) as client:
                    if client.ping():
                        return proc
            except (ConnectionError, OSError):
                pass  # bound but not accepting yet
        if proc.poll() is not None:
            print(proc.stdout.read())
            print(proc.stderr.read())
            check(False, "daemon came up")
        time.sleep(0.02)
    proc.kill()
    check(False, "daemon answered a ping within 60 s")


def backfill_checkpoint_lines(store: Path) -> int:
    lines = 0
    for path in (store / "checkpoints").glob("backfill-*.jsonl"):
        lines += max(0, len(path.read_text().splitlines()) - 1)  # minus header
    return lines


def fire_cold_queries(sock: Path, timeout_s: float = 120.0) -> list:
    """The four coalescing cold queries, concurrently; returns
    responses or exceptions (the kill phase expects failures)."""

    def ask(vdd: float):
        try:
            with ServeClient(socket_path=sock, timeout_s=timeout_s) as client:
                return client.query("drnm", design="proposed", vdd=vdd)
        except (ServeError, ConnectionError, OSError) as exc:
            return exc

    with ThreadPoolExecutor(max_workers=len(COLD_VDDS)) as pool:
        return list(pool.map(ask, COLD_VDDS))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        tmp_path = Path(tmp)
        store = tmp_path / "char"
        sock = tmp_path / "serve.sock"
        spec = tmp_path / "smoke_serve.json"
        spec.write_text(json.dumps(SPEC))
        artifacts = Path(os.environ.get("SMOKE_ARTIFACTS", tmp_path / "artifacts"))
        artifacts.mkdir(parents=True, exist_ok=True)

        print("1. warm the store with a real build")
        built = cli("char", "build", "--spec", str(spec), "--store", str(store))
        check(built.returncode == 0, "seed build exits 0")

        print("2. daemon up, status sees full coverage")
        daemon = start_daemon(spec, store, sock, artifacts)
        status = cli("serve", "status", "--socket", str(sock), "--json")
        check(status.returncode == 0, "serve status exits 0")
        payload = json.loads(status.stdout)
        check(payload["coverage"][0]["present"] == 2, "2/2 entries served")

        print("3. warm queries from memory")
        exact = cli("serve", "query", "drnm", "--design", "proposed",
                    "--vdd", "0.8", "--socket", str(sock), "--json")
        check(exact.returncode == 0, "exact query exits 0")
        response = json.loads(exact.stdout)
        check(response["served"] == "memory", "exact point served from memory")
        check(response["result"]["method"] == "exact", "exact method")

        mid = cli("serve", "query", "drnm", "--design", "proposed",
                  "--vdd", "0.7", "--socket", str(sock), "--json")
        response = json.loads(mid.stdout)
        check(response["result"]["method"] == "linear", "midpoint interpolated")

        print("4. a cold query backfills, then stays warm")
        cold = cli("serve", "query", "drnm", "--design", "proposed",
                   "--vdd", "0.55", "--socket", str(sock), "--json")
        check(cold.returncode == 0, "cold query exits 0")
        response = json.loads(cold.stdout)
        check(response["served"] == "backfill", "cold point served via backfill")
        retry = cli("serve", "query", "drnm", "--design", "proposed",
                    "--vdd", "0.55", "--socket", str(sock), "--json")
        response = json.loads(retry.stdout)
        check(response["served"] == "memory", "retry is a warm hit")

        print("5. SIGKILL the daemon mid-backfill")
        with ThreadPoolExecutor(max_workers=1) as firer:
            doomed = firer.submit(fire_cold_queries, sock, 600.0)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if backfill_checkpoint_lines(store) >= 2:
                    break
                time.sleep(0.02)
            progress = backfill_checkpoint_lines(store)
            check(
                0 < progress < len(COLD_VDDS),
                f"checkpoint shows partial progress ({progress}/{len(COLD_VDDS)})",
            )
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=30)
            doomed.result(timeout=120)  # clients fail; only reap them

        print("6. restart, re-issue the same misses, resume from the checkpoint")
        daemon = start_daemon(spec, store, sock, artifacts)
        answers = fire_cold_queries(sock)
        for vdd, answer in zip(COLD_VDDS, answers):
            check(
                isinstance(answer, dict) and answer["served"] == "backfill",
                f"re-issued {vdd:g} V query answered via backfill",
            )
        status = json.loads(
            cli("serve", "status", "--socket", str(sock), "--json").stdout
        )
        reports = status["backfill"]["last_reports"] or []
        resumed = sum(r["resumed"] for r in reports)
        computed = sum(r["computed"] for r in reports)  # includes replays
        fresh = computed - resumed
        check(
            resumed >= 1,
            f"resume replayed checkpointed points (resumed={resumed})",
        )
        check(
            fresh < len(COLD_VDDS),
            f"completed points were not recomputed "
            f"({fresh}/{len(COLD_VDDS)} freshly simulated)",
        )
        check(
            computed + sum(r["reused"] for r in reports) >= len(COLD_VDDS),
            "every missed point landed",
        )

        print("7. a non-finite answer crosses the wire")
        with ServeClient(socket_path=sock, timeout_s=120.0) as client:
            for served in ("backfill", "memory"):
                response = client.query("wl_crit", design="inward_p",
                                        vdd=0.8, beta=2.0)
                check(
                    response["served"] == served
                    and response["result"]["value"] == math.inf,
                    f"unwritable WL_crit served from {served} as inf "
                    f"(got {response['served']}, {response['result']['value']!r})",
                )

        print("8. SIGTERM drains cleanly and writes the run manifest")
        daemon.send_signal(signal.SIGTERM)
        out, err = daemon.communicate(timeout=60)
        check(daemon.returncode == 0, f"daemon exits 0 (stderr: {err.strip()!r})")
        check("drained and stopped" in out, "drain message printed")
        check(not sock.exists(), "socket removed on shutdown")
        manifest_path = artifacts / "serve_manifest.json"
        check(manifest_path.exists(), "final run manifest written")
        manifest = json.loads(manifest_path.read_text())
        counters = manifest["telemetry"]["counters"]
        check(counters.get("serve.requests", 0) >= 5, "request counters recorded")
        check(
            manifest_path.with_suffix(".prom").exists(),
            "Prometheus text written beside the manifest",
        )
        trace = load_trace(artifacts / "serve_trace")
        check(
            manifest["trace_id"] in trace["trace_ids"],
            f"manifest trace id {manifest['trace_id']} joins the trace "
            f"(trace ids {trace['trace_ids']})",
        )

    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
