"""The ``repro serve`` daemon: an asyncio characterization service.

One process, one event loop, one :class:`GridRegistry`: queries are
answered from in-memory :class:`~repro.char.query.CharGrid` surrogates
(microseconds of numpy per hit), misses flow through the
:class:`~repro.serve.backfill.BackfillQueue`, and everything speaks the
JSON-lines protocol of :mod:`repro.serve.protocol` over a unix socket
and/or a localhost TCP port.  A hit never awaits: the store-coherence
stat, the grid lookup and the reply run inline in the connection's
coroutine, with no task of their own; only a miss awaits, on its
backfill.

Operational contract:

* **Admission control** — at most ``max_inflight`` query requests are
  processed concurrently and at most ``backfill_depth`` points may be
  pending backfill; both limits reject with structured errors
  (``overloaded``) instead of queueing unboundedly.  Request lines
  over ``max_line_bytes`` are answered with ``oversized`` and the
  connection is closed.
* **Per-request timeout** — ``request_timeout_s`` bounds a miss's
  backfill wait, the only step of a query that awaits (a hit, which
  never yields, could not be interrupted by it); expiry answers
  ``timeout`` while the backfill itself keeps running, so a retry
  after the build lands is a warm hit.
* **Graceful shutdown** — SIGTERM/SIGINT (or a ``shutdown`` op) stops
  accepting, drains in-flight requests and backfill within
  ``drain_grace_s``, writes the final run manifest (JSON, with its
  Prometheus text beside it), and exits.  In-flight backfill is
  checkpointed by the engine continuously, so even an ungraceful kill
  loses nothing.
* **Telemetry** — every request lands in ``serve.*`` counters/timers
  on the daemon's session (warm queries are timed, not recorded as
  span records, so a long-lived daemon holds no per-query state);
  ``metrics`` returns the same run manifest the shutdown file
  persists, with its Prometheus text form.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.char.query import CharQueryError
from repro.char.spec import CharSpec
from repro.char.store import CharStore
from repro.serve import protocol
from repro.serve.backfill import (
    BackfillFailed,
    BackfillOverloaded,
    BackfillQueue,
    MissKey,
)
from repro.serve.registry import BACKFILLABLE_REASONS, GridRegistry
from repro.telemetry import core as telemetry
from repro.telemetry.manifest import build_manifest, to_prometheus, write_manifest

__all__ = ["ServeConfig", "ServeDaemon", "serve"]

DEFAULT_SOCKET = "results/serve.sock"


@dataclass
class ServeConfig:
    """Everything one daemon run needs; see the module docstring."""

    store_dir: str | Path = "results/char"
    specs: list[CharSpec] = field(default_factory=list)
    socket_path: str | Path | None = DEFAULT_SOCKET
    tcp_port: int | None = None
    """Optional localhost TCP listener (same protocol as the socket)."""

    max_inflight: int = 64
    backfill_depth: int = 256
    coalesce_s: float = 0.05
    request_timeout_s: float = 120.0
    drain_grace_s: float = 30.0
    jobs: int = 1
    """Worker processes per backfill build (1 = inline in the build
    thread)."""

    verify_fraction: float = 0.0
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    metrics_out: str | Path | None = None
    trace_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.socket_path is None and self.tcp_port is None:
            raise ValueError("serve needs a unix socket path or a TCP port")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.backfill_depth < 1:
            raise ValueError("backfill_depth must be >= 1")
        if self.request_timeout_s <= 0.0:
            raise ValueError("request_timeout_s must be positive")
        # Checked here rather than at the first backfill build, where a
        # bad value would fail every cold miss of an otherwise live daemon.
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {self.verify_fraction}"
            )
        if self.coalesce_s < 0.0:
            raise ValueError(f"coalesce_s must be >= 0, got {self.coalesce_s}")
        if self.drain_grace_s < 0.0:
            raise ValueError(f"drain_grace_s must be >= 0, got {self.drain_grace_s}")


class ServeDaemon:
    """One long-running serving loop over a characterization store."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = CharStore(config.store_dir)
        self.registry = GridRegistry(self.store, config.specs)
        # Held by reference: the backfill thread briefly shadows the
        # global session during task execution, so the daemon must
        # never depend on telemetry.active() for its own accounting.
        existing = telemetry.active()
        self._owns_session = existing is None
        self.session = existing or telemetry.enable()
        # Backfill builds trace under the session's id, so the daemon's
        # manifest joins the trace under its trace directory.
        self.backfill = BackfillQueue(
            self.store,
            depth=config.backfill_depth,
            coalesce_s=config.coalesce_s,
            jobs=config.jobs,
            verify_fraction=config.verify_fraction,
            trace_dir=str(config.trace_dir) if config.trace_dir else None,
            trace_id=self.session.trace_id,
        )
        self._servers: list[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()
        self._draining = False
        self._active_queries = 0
        self._started_unix = time.time()

    # -- lifecycle ---------------------------------------------------------

    async def run(self) -> None:
        """Listen, serve until shutdown is requested, then drain."""
        self.backfill.start()
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.unlink(missing_ok=True)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._on_client, path=str(path),
                    limit=self.config.max_line_bytes,
                )
            )
        if self.config.tcp_port is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._on_client, host="127.0.0.1",
                    port=self.config.tcp_port,
                    limit=self.config.max_line_bytes,
                )
            )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-main-thread loops (tests) poll the event instead

        try:
            await self._shutdown.wait()
            await self._drain()
        finally:
            if self._owns_session and telemetry.active() is self.session:
                telemetry.disable()

    def request_shutdown(self) -> None:
        """Idempotent: the first call wins, later ones are no-ops."""
        self._draining = True
        self._shutdown.set()

    async def _drain(self) -> None:
        for server in self._servers:
            server.close()
        deadline = time.monotonic() + self.config.drain_grace_s
        # Backfill first: settling its futures is what unblocks any
        # queries still awaiting a batch.
        drained = await self.backfill.drain(
            max(0.0, deadline - time.monotonic())
        )
        while self._active_queries and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for server in self._servers:
            await server.wait_closed()
        if self.config.socket_path is not None:
            Path(self.config.socket_path).unlink(missing_ok=True)
        self._write_metrics()
        if not drained:
            # The build thread is wedged past the grace budget; its
            # checkpoint holds every completed point, so a hard exit
            # loses nothing and beats hanging the supervisor.
            os._exit(0)

    def _write_metrics(self) -> None:
        if self.config.metrics_out is not None:
            write_manifest(self._manifest(), self.config.metrics_out)

    # -- connection handling -----------------------------------------------

    async def _on_client(self, reader, writer) -> None:
        self.session.count("serve.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.session.count("serve.rejected.oversized")
                    await self._send(
                        writer,
                        protocol.error_response(
                            "oversized",
                            f"request line exceeds "
                            f"{self.config.max_line_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                close_after = response.pop("_close", False)
                if not await self._send(writer, response):
                    break
                if close_after:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer, response: dict) -> bool:
        try:
            writer.write(protocol.encode_line(response))
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.session.count("serve.disconnects")
            return False

    # -- request dispatch --------------------------------------------------

    async def _dispatch(self, line: bytes) -> dict:
        self.session.count("serve.requests")
        t0 = time.perf_counter()
        try:
            request = protocol.parse_request(line, self.config.max_line_bytes)
        except protocol.ProtocolError as exc:
            self.session.count(f"serve.rejected.{exc.code}")
            response = protocol.error_response(exc.code, exc.message)
            if exc.code == "oversized":
                response["_close"] = True
            return response
        op = request["op"]
        if op == "ping":
            return protocol.ok_response(request, pong=True)
        if op == "status":
            return protocol.ok_response(request, status=self._status())
        if op == "metrics":
            return protocol.ok_response(request, metrics=self._metrics())
        if op == "shutdown":
            already = self._draining
            self.request_shutdown()
            return protocol.ok_response(request, stopping=True, already=already)

        # op == "query"
        if self._draining:
            self.session.count("serve.rejected.shutting_down")
            return protocol.error_response(
                "shutting_down", "daemon is draining", request
            )
        if self._active_queries >= self.config.max_inflight:
            self.session.count("serve.rejected.overload")
            return protocol.error_response(
                "overloaded",
                f"{self._active_queries} queries in flight "
                f"(limit {self.config.max_inflight})",
                request,
            )
        self._active_queries += 1
        try:
            # A hit never awaits, so it runs inline: no task, no timeout.
            started = time.perf_counter()
            coords = {k: request[k]
                      for k in ("metric", "design", "vdd", "beta", "corner")}
            response = self._answer_from_memory(request, coords, started)
            if response is None:
                response = await asyncio.wait_for(
                    self._backfill_query(request, coords, started),
                    self.config.request_timeout_s,
                )
        except asyncio.TimeoutError:
            self.session.count("serve.timeouts")
            response = protocol.error_response(
                "timeout",
                f"request exceeded {self.config.request_timeout_s:g} s "
                "(a triggered backfill keeps running; retry later)",
                request,
            )
        except Exception as exc:  # noqa: BLE001 — the daemon must survive
            self.session.count("serve.errors.internal")
            response = protocol.error_response(
                "internal", f"{type(exc).__name__}: {exc}", request
            )
        finally:
            self._active_queries -= 1
        self.session.add_time("serve.request_s", time.perf_counter() - t0)
        return response

    def _answer_from_memory(self, request, coords, t0) -> dict | None:
        """The answer from the loaded grids, synchronously; ``None`` for
        a miss a backfill can cure."""
        self.registry.maybe_reload()
        try:
            with self.session.time_block("span.serve.query"):
                answer = self.registry.answer(method=request["method"], **coords)
        except CharQueryError as exc:
            if exc.reason not in BACKFILLABLE_REASONS:
                self.session.count("serve.rejected.bad_request")
                return protocol.error_response("bad_request", str(exc), request)
            self.session.count("serve.misses")
            return None
        self.session.count("serve.hits")
        return self._answer_response(request, answer, "memory", t0)

    async def _backfill_query(self, request, coords, t0) -> dict:
        key = MissKey(
            design=coords["design"], corner=coords["corner"],
            beta=coords["beta"], vdd=float(coords["vdd"]),
            metric=coords["metric"],
        )
        try:
            future = self.backfill.submit(key)
        except BackfillOverloaded as exc:
            self.session.count("serve.rejected.overload")
            return protocol.error_response("overloaded", str(exc), request)
        except RuntimeError as exc:
            return protocol.error_response("shutting_down", str(exc), request)
        self.session.count("serve.backfill.requests")
        try:
            # Shielded: a per-request timeout must not cancel a future
            # other coalesced clients are waiting on.
            await asyncio.shield(future)
        except asyncio.CancelledError:
            raise
        except BackfillFailed as exc:
            return protocol.error_response("backfill_failed", str(exc), request)
        except RuntimeError as exc:
            return protocol.error_response("shutting_down", str(exc), request)
        self.registry.maybe_reload()
        try:
            answer = self.registry.answer(method=request["method"], **coords)
        except CharQueryError as exc:
            # The point landed but is no longer servable — a concurrent
            # `repro char build` can recalibrate the store between the
            # backfill landing and this reload.  That is a retryable
            # race, not an internal error.
            self.session.count("serve.backfill.lost")
            return protocol.error_response(
                "backfill_failed",
                f"backfill landed but the point is no longer servable "
                f"({exc.reason}): {exc}; a concurrent build may have "
                "recalibrated the store — retry",
                request,
            )
        return self._answer_response(request, answer, "backfill", t0)

    def _answer_response(self, request, answer, served: str, t0) -> dict:
        wall_us = (time.perf_counter() - t0) * 1e6
        self.session.observe("serve.answer_us", wall_us)
        return protocol.ok_response(
            request,
            result=answer.to_json(),
            served=served,
            wall_us=round(wall_us, 1),
        )

    # -- introspection payloads --------------------------------------------

    def _status(self) -> dict:
        return {
            "schema": protocol.PROTOCOL_SCHEMA,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self._started_unix, 3),
            "store": str(self.store.directory),
            "specs": [spec.name for spec in self.registry.specs],
            "coverage": self.registry.coverage(),
            "index": self.store.index_summary(),
            "reloads": self.registry.reloads,
            "draining": self._draining,
            "active_queries": self._active_queries,
            "backfill": self.backfill.status(),
            "counters": dict(sorted(self.session.counters.items())),
        }

    def _manifest(self) -> dict:
        return build_manifest(
            "serve", "repro serve", None, self.session,
            time.time() - self._started_unix,
        )

    def _metrics(self) -> dict:
        manifest = self._manifest()
        return {"json": manifest, "prom": to_prometheus(manifest)}


async def serve(config: ServeConfig) -> None:
    """Build a daemon from ``config`` and run it to completion."""
    await ServeDaemon(config).run()
