"""Shared serve-test fixtures: a tiny pre-built store + a daemon harness.

The seed store is built once per session (two cmos hold-power points —
the cheapest entries in the suite); tests that mutate the store get a
private copy.  The harness runs the real daemon event loop on a
background thread over a per-test unix socket.
"""

from __future__ import annotations

import asyncio
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.char import CharSpec, CharStore, build_grid
from repro.serve import ServeConfig, ServeDaemon
from repro.serve.client import ServeClient

SERVE_SPEC = CharSpec(
    name="servetest", designs=("cmos",), vdds=(0.6, 0.8), metrics=("hold_power",)
)


@pytest.fixture(scope="session")
def serve_spec() -> CharSpec:
    return SERVE_SPEC


@pytest.fixture(scope="session")
def seed_store_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("serve_seed")
    report = build_grid(SERVE_SPEC, CharStore(directory))
    assert report.failed == 0
    return directory


class DaemonHarness:
    """One daemon on a background thread; `client()` connects to it."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.daemon = ServeDaemon(config)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        await self.daemon.run()

    def _run(self) -> None:
        asyncio.run(self._main())

    def start(self) -> "DaemonHarness":
        """Start the daemon and return once it answers a ping.

        The socket file appears when the daemon binds, before it
        listens; a test connecting in between is refused."""
        self.thread.start()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if not self.thread.is_alive():
                raise RuntimeError("daemon thread died during startup")
            try:
                with self.client(timeout_s=5.0) as client:
                    if client.ping():
                        return self
            except OSError:  # no socket file yet, or not yet listening
                pass
            time.sleep(0.01)
        raise RuntimeError("daemon never answered a ping")

    def stop(self, timeout_s: float = 20.0) -> None:
        if self.thread.is_alive() and self.loop is not None:
            try:
                self.loop.call_soon_threadsafe(self.daemon.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self.thread.join(timeout_s)
        assert not self.thread.is_alive(), "daemon failed to drain"

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(socket_path=self.config.socket_path, **kwargs)


@pytest.fixture
def daemon_factory(tmp_path, seed_store_dir):
    """Callable building a running harness over a copy of the seed store."""
    started: list[DaemonHarness] = []
    counter = [0]

    def factory(**overrides) -> DaemonHarness:
        counter[0] += 1
        store_dir = overrides.pop("store_dir", None)
        if store_dir is None:
            store_dir = tmp_path / f"store{counter[0]}"
            shutil.copytree(seed_store_dir, store_dir)
        overrides.setdefault("specs", [SERVE_SPEC])
        overrides.setdefault("socket_path", tmp_path / f"serve{counter[0]}.sock")
        config = ServeConfig(store_dir=store_dir, **overrides)
        harness = DaemonHarness(config).start()
        started.append(harness)
        return harness

    yield factory
    for harness in started:
        harness.stop()
