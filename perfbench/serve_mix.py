"""The serve_mix workload: warm reads and cold misses on one daemon.

One ``repro serve start`` daemon (one worker, ``--jobs 1``) serves a
character store (``serve_spec.json``) built once for the checkout's
program, cached under ``.perfbench_cache/serve_store-<digest>`` (of
``src/`` and the spec) and copied fresh for each run.
Two connections from the benchmark process drive it closed-loop:

* connection A (main thread) sends warm reads back to back: exact and
  interpolated points inside the store's range;
* connection B (a thread) sends cold misses back to back: golden-table
  points outside the store (never WL_crit).  Each miss backfills,
  appends to the store, recompiles the grid and reloads it, so the
  daemon's build thread competes with its event loop for the GIL.
  A run whose miss pool runs out before its deadline is not correct:
  its reads would stop competing with backfill.

Reads are checked against an in-process ``CharGrid.query`` of the same
store, misses against the golden table.  Run ``python3
perfbench/serve_mix.py --build-store DIR`` to build the store by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from workloads import Op, digest  # noqa: E402

SPEC_PATH = common.BENCH_DIR / "serve_spec.json"
READ_VDDS = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
READ_TOLERANCE = (1e-12, 0.0)
SPAWN_TIMEOUT_S = 60.0
MISS_TIERS = 12
"""Cost tiers per miss metric (see :func:`balanced_order`)."""


def build_store(directory: Path) -> None:
    """Build the serving store (every entry of ``serve_spec.json``)."""
    from repro.char import CharStore, load_spec
    from repro.char.build import build_grid

    report = build_grid(load_spec(SPEC_PATH), CharStore(directory), jobs=1)
    if report.failed:
        raise RuntimeError(f"store build failed {report.failed} entries")


def cached_store() -> Path:
    """The store built by this checkout's program, built on first use.

    The directory is keyed on a digest of the program source and the
    serve spec, so a run never serves a store that other code built.
    """
    h = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*.py")) + [SPEC_PATH]:
        h.update(path.relative_to(common.ROOT).as_posix().encode())
        h.update(path.read_bytes())
    store = common.CACHE_DIR / f"serve_store-{h.hexdigest()[:16]}"
    if not store.exists():
        common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="build-", dir=common.CACHE_DIR))
        try:
            subprocess.run([sys.executable, __file__, "--build-store", str(tmp / "store")],
                           check=True, cwd=common.ROOT, env=_env(), stdout=subprocess.DEVNULL)
            if not store.exists():
                (tmp / "store").rename(store)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return store


def balanced_order(pool: list, rng: random.Random) -> list[str]:
    """Miss keys in consumption order (popped from the end).

    Each metric's points are cut into cost tiers.  The order visits the
    tiers in a fixed sequence that spreads over the cost range, taking
    one seeded pick from that tier of every metric, so every stretch of
    misses has the same mix of metrics and costs whatever the seed: the
    mix sets how the daemon's build thread competes with its reads.
    """
    by_metric: dict[str, list] = {}
    for key, e in pool:
        by_metric.setdefault(e["metric"], []).append((e["cost_s"], key))
    cells = {}
    for metric, items in sorted(by_metric.items()):
        items.sort()
        for t in range(MISS_TIERS):
            cell = [key for _, key in
                    items[t * len(items) // MISS_TIERS:(t + 1) * len(items) // MISS_TIERS]]
            rng.shuffle(cell)
            cells[metric, t] = cell
    visits = [(5 * t) % MISS_TIERS for t in range(MISS_TIERS)]
    order = [cells[metric, t][i]
             for i in range(max(map(len, cells.values())))
             for t in visits for metric in sorted(by_metric) if i < len(cells[metric, t])]
    return order[::-1]


class ServeMix:
    name = "serve_mix"

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        self.traced = traced
        self.proc = None
        self.rundir = None
        self.excluded: list[tuple[float, float]] = []
        """Windows inside set-up that are not set-up (the store lookup
        and its one-time build)."""
        self.pool_ran_out = False
        # One vCPU for the client and the daemon it spawns: across two
        # vCPUs every request pays a hypervisor wake-up of the idle one,
        # which moved the read p50 by 2x between runs (one vCPU: 2 %).
        # The client's run-queue wait behind the daemon is an artefact
        # of sharing that vCPU and is subtracted from each read.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.run_delay = common.RunDelay()

    # -- set-up --------------------------------------------------------------

    def import_layers(self) -> None:
        from repro.char.spec import load_spec
        from repro.serve.client import ServeClient, ServeError

        self.client_cls, self.error_cls = ServeClient, ServeError
        self.spec = load_spec(SPEC_PATH)

    def build_tables(self) -> None:
        """Find (or build) the store; users build it once, so it is not set-up."""
        t0 = time.perf_counter()
        self.store = cached_store()
        self.excluded.append((t0, time.perf_counter()))

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        # Every (design, metric, vdd) read, so each seed reads the same
        # mix of exact and interpolated answers; the seed sets the order.
        self.read_pool = [(m, d, v) for d in self.spec.designs for m in self.spec.metrics
                          for v in READ_VDDS]
        rng.shuffle(self.read_pool)
        # Misses: the golden cells outside the store, plus the golden
        # section computed for this pool (``common.miss_specs``).
        golden = common.load_golden()
        covered = {(d, v) for d in self.spec.designs for v in self.spec.vdds}
        seen = set()
        pool = []
        for key, e in sorted(golden["cells"].items()) + sorted(golden["misses"].items()):
            point = (e["metric"], e["design"], e["vdd"], e["beta"], e["corner"])
            if (e["metric"] in common.MISS_METRICS and point not in seen
                    and math.isfinite(e["value"])
                    and ((e["design"], e["vdd"]) not in covered or e["beta"] is not None
                         or e["corner"] != "tt")):
                seen.add(point)
                pool.append((key, e))
        self.golden = dict(pool)
        self.miss_pool = balanced_order(pool, rng)
        self.op_digest = digest([self.read_pool, self.miss_pool])
        self.start_daemon()
        self._read(self.read_pool[0])
        self._miss(self.miss_pool.pop())

    def start_daemon(self, traced: bool = False) -> None:
        common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        self.rundir = Path(tempfile.mkdtemp(prefix="serve-", dir=common.CACHE_DIR))
        store = self.rundir / "store"
        shutil.copytree(self.store, store)
        self.socket = self.rundir.relative_to(common.ROOT) / "serve.sock"
        cmd = [sys.executable, str(common.BENCH_DIR / "launcher.py"),
               "--out", str(self.rundir)] + (["--trace"] if traced else []) + [
            "--", "serve", "start", "--store", str(store.relative_to(common.ROOT)),
            "--socket", str(self.socket), "--spec", str(SPEC_PATH.relative_to(common.ROOT)),
            "--jobs", "1", "--workers", "1"]
        self._log = open(self.rundir / "daemon.log", "wb")
        self.proc = subprocess.Popen(cmd, cwd=common.ROOT, env=_env(),
                                     stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}: "
                                   f"{(self.rundir / 'daemon.log').read_text()[-2000:]}")
            try:
                self.conn_a = self.client_cls(socket_path=self.socket, timeout_s=120.0)
                if self.conn_a.ping():
                    break
            except (FileNotFoundError, ConnectionError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        self.conn_b = self.client_cls(socket_path=self.socket, timeout_s=120.0)

    def stop_daemon(self) -> dict:
        """Fetch the daemon's counters, shut it down, read its report."""
        status = self.conn_a.status()
        self.conn_a.shutdown()
        self.conn_a.close()
        self.conn_b.close()
        self.proc.wait(timeout=60)
        self._log.close()
        report = json.loads((self.rundir / "daemon.json").read_text())
        report["status"] = status
        self.proc = None
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir = None
        return report

    # -- ops -----------------------------------------------------------------

    def _read(self, query) -> Op:
        metric, design, vdd = query
        op = Op(f"{metric}/{design}@{vdd}", query)
        w0 = self.run_delay()
        op.t0 = time.perf_counter()
        try:
            response = self.conn_a.query(metric, design=design, vdd=vdd)
            op.value = response["result"]["value"]
            op.extra = {"wall_us": response["wall_us"], "served": response["served"]}
        except (self.error_cls, ConnectionError, OSError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        op.t1 = time.perf_counter()
        op.waited = self.run_delay() - w0
        return op

    def _miss(self, key: str) -> Op:
        e = self.golden[key]
        op = Op(key, (e["metric"], e["design"], e["vdd"], e["beta"], e["corner"]))
        op.t0 = time.perf_counter()
        try:
            response = self.conn_b.query(e["metric"], design=e["design"], vdd=e["vdd"],
                                         beta=e["beta"], corner=e["corner"])
            op.value = response["result"]["value"]
            op.extra = {"wall_us": response["wall_us"], "served": response["served"]}
        except (self.error_cls, ConnectionError, OSError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        op.t1 = time.perf_counter()
        return op

    def measure(self, seconds: float) -> tuple[list[Op], list[Op]]:
        """Reads on A and misses on B, closed-loop, for ``seconds``."""
        deadline = time.perf_counter() + seconds
        misses: list[Op] = []

        def miss_loop():
            while time.perf_counter() < deadline:
                if not self.miss_pool:
                    self.pool_ran_out = True
                    return
                misses.append(self._miss(self.miss_pool.pop()))

        thread = threading.Thread(target=miss_loop, name="serve-misses")
        thread.start()
        reads = []
        while time.perf_counter() < deadline:
            reads.append(self._read(self.read_pool[len(reads) % len(self.read_pool)]))
        thread.join()
        return reads, misses

    # -- checks --------------------------------------------------------------

    def check_reads(self, reads: list[Op]) -> None:
        """Compare each read with an in-process query of the same store."""
        from repro.char.query import CharGrid

        grid = CharGrid.from_store(self.store, self.spec)
        expected = {}
        for op in reads:
            if op.error:
                continue
            if op.key not in expected:
                metric, design, vdd = op.args
                expected[op.key] = grid.query(metric, design=design, vdd=vdd).value
            if not common.close(op.value, expected[op.key], *READ_TOLERANCE):
                op.error = f"read {op.key}: {op.value!r} != in-process {expected[op.key]!r}"

    def check_misses(self, misses: list[Op]) -> None:
        for op in misses:
            if op.error:
                continue
            e = self.golden[op.key]
            rel, abs_ = common.CELL_TOLERANCE[e["metric"]]
            if not common.close(op.value, e["value"], rel, abs_):
                op.error = f"miss {op.key}: {op.value!r} != golden {e['value']!r}"

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.rundir is not None:
            shutil.rmtree(self.rundir, ignore_errors=True)


def _env() -> dict:
    return {**os.environ, **common.BENCH_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-store", metavar="DIR", required=True)
    args = parser.parse_args(argv)
    common.prepare_environment()
    build_store(Path(args.build_store))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
