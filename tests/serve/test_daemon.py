"""Daemon behavior over a live socket: hits, backfill, admission
control, and the protocol edge cases the serving contract promises —
malformed JSON, oversized lines, mid-backfill disconnects, double
shutdown."""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.serve import ServeConfig, ServeDaemon, protocol
from repro.serve.client import ServeError
from repro.telemetry import core as telemetry

COLD = {"metric": "hold_power", "design": "cmos", "vdd": 0.55}
WARM = {"op": "query", "metric": "hold_power", "design": "cmos", "vdd": 0.7}
INFINITE = {"metric": "wl_crit", "design": "inward_p", "vdd": 0.8, "beta": 2.0}
"""An unwritable point: its WL_crit is ``inf`` (``perfbench/golden.json``)."""


def _wait(predicate, timeout_s=30.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestConfigValidation:
    """Bad settings fail at construction, before any listener binds —
    not later, as a backfill error on every cold miss of a live daemon."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jobs", 0),
            ("jobs", -2),
            ("verify_fraction", -0.1),
            ("verify_fraction", 1.5),
            ("coalesce_s", -0.01),
            ("drain_grace_s", -1.0),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .*{value}"):
            ServeConfig(**{field: value})

    def test_accepts_the_range_edges(self):
        config = ServeConfig(jobs=1, verify_fraction=1.0, coalesce_s=0.0,
                             drain_grace_s=0.0)
        assert config.verify_fraction == 1.0


class TestWarmPath:
    def test_ping_and_warm_queries(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            assert client.ping()
            exact = client.query("hold_power", design="cmos", vdd=0.6)
            assert exact["served"] == "memory"
            assert exact["result"]["method"] == "exact"
            assert exact["wall_us"] > 0
            interp = client.query(
                "hold_power", design="cmos", vdd=0.7, request_id="q1"
            )
            assert interp["id"] == "q1"
            assert interp["result"]["method"] == "linear"

    def test_status_payload(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            client.ping()
            status = client.status()
        assert status["schema"] == protocol.PROTOCOL_SCHEMA
        assert isinstance(status["pid"], int)
        assert status["specs"] == ["servetest"]
        assert status["coverage"][0]["present"] == 2
        assert status["index"]["entries"] == 2
        assert status["draining"] is False
        assert status["backfill"]["pending"] == 0
        assert status["counters"]["serve.requests"] >= 1

    def test_metrics_payload(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            client.query("hold_power", design="cmos", vdd=0.6)
            metrics = client.metrics()
        manifest = metrics["json"]
        assert manifest["schema"] == "repro.run-manifest/v1"
        assert manifest["experiment_id"] == "serve"
        assert "result" not in manifest
        counters = manifest["telemetry"]["counters"]
        assert counters["serve.hits"] == 1
        assert 'repro_serve_hits_total{run="serve"} 1' in metrics["prom"]

    def test_warm_queries_keep_no_span_records(self, daemon_factory):
        daemon = daemon_factory()
        n = 25
        with daemon.client() as client:
            for _ in range(n):
                client.query("hold_power", design="cmos", vdd=0.6)
            manifest = client.metrics()["json"]
        assert daemon.daemon.session.spans == []
        assert manifest["telemetry"]["timers"]["span.serve.query"]["count"] == n

    def test_tcp_listener_speaks_the_same_protocol(self, daemon_factory):
        import socket as socketlib

        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        daemon = daemon_factory(tcp_port=port)
        from repro.serve.client import ServeClient

        with ServeClient(tcp_port=port) as client:
            assert client.ping()
            answer = client.query("hold_power", design="cmos", vdd=0.6)
            assert answer["served"] == "memory"


@pytest.fixture
def in_process(tmp_path, seed_store_dir, serve_spec):
    """A daemon that is never started: tests drive ``_dispatch`` on
    their own event loop."""
    store_dir = tmp_path / "store"
    shutil.copytree(seed_store_dir, store_dir)
    daemon = ServeDaemon(ServeConfig(store_dir=store_dir, specs=[serve_spec],
                                     socket_path=tmp_path / "unused.sock"))
    yield daemon
    if daemon._owns_session and telemetry.active() is daemon.session:
        telemetry.disable()


@pytest.fixture
def wait_for_calls(monkeypatch):
    """The timeouts of every ``asyncio.wait_for`` call, in order."""
    calls = []
    real = asyncio.wait_for

    def spy(awaitable, timeout):
        calls.append(timeout)
        return real(awaitable, timeout)

    monkeypatch.setattr(asyncio, "wait_for", spy)
    return calls


def _dispatch(daemon, payload: dict) -> tuple[dict, list]:
    """``payload`` through ``_dispatch``; returns the response and the
    tasks the dispatch created."""
    created = []

    async def drive():
        loop = asyncio.get_running_loop()

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        try:
            return await daemon._dispatch(protocol.encode_line(payload))
        finally:
            loop.set_task_factory(None)

    return asyncio.run(drive()), created


class TestHitPath:
    """A warm hit is answered inline: only a backfill awaits, and only
    the backfill wait runs under ``request_timeout_s``."""

    def test_hit_creates_no_task_and_awaits_no_timeout(
        self, in_process, wait_for_calls
    ):
        for _ in range(3):
            response, created = _dispatch(in_process, WARM)
            assert response["served"] == "memory"
            assert response["result"]["method"] == "linear"
            assert created == []
        assert wait_for_calls == []
        session = in_process.session
        assert session.counters["serve.requests"] == 3
        assert session.counters["serve.hits"] == 3
        assert "serve.misses" not in session.counters
        assert session.timers["span.serve.query"].count == 3
        assert session.timers["serve.request_s"].count == 3
        assert session.histograms["serve.answer_us"].count == 3
        assert in_process._active_queries == 0

    def test_hit_reply_matches_the_reference_line(self, in_process):
        """Apart from ``wall_us``, a hit's reply is the answer's JSON."""
        response, _ = _dispatch(in_process, {**WARM, "id": "w1"})
        answer = in_process.registry.answer(
            "hold_power", design="cmos", vdd=0.7, beta=None, corner="tt"
        )
        assert protocol.encode_line(response) == protocol.encode_line(
            {"ok": True, "result": answer.to_json(), "served": "memory",
             "wall_us": response["wall_us"], "id": "w1"}
        )

    def test_exception_in_answer_is_internal_and_the_next_read_serves(
        self, daemon_factory
    ):
        daemon = daemon_factory()
        registry = daemon.daemon.registry
        real = registry.answer
        calls = []

        def broken_once(**kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise RuntimeError("grid exploded")
            return real(**kwargs)

        registry.answer = broken_once
        with daemon.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.query("hold_power", design="cmos", vdd=0.6)
            assert excinfo.value.code == "internal"
            assert "RuntimeError: grid exploded" in excinfo.value.message
            assert client.query("hold_power", design="cmos", vdd=0.6)[
                "served"] == "memory"
            counters = client.status()["counters"]
        assert counters["serve.errors.internal"] == 1
        assert counters["serve.hits"] == 1
        assert daemon.daemon._active_queries == 0

    def test_admission_answers_are_unchanged(self, in_process):
        in_process._active_queries = in_process.config.max_inflight
        response, _ = _dispatch(in_process, {**WARM, "id": 3})
        assert response == {
            "ok": False, "id": 3,
            "error": {"code": "overloaded",
                      "message": "64 queries in flight (limit 64)"},
        }
        in_process._active_queries = 0
        in_process.request_shutdown()
        response, _ = _dispatch(in_process, WARM)
        assert response == {
            "ok": False,
            "error": {"code": "shutting_down", "message": "daemon is draining"},
        }
        counters = in_process.session.counters
        assert counters["serve.rejected.overload"] == 1
        assert counters["serve.rejected.shutting_down"] == 1
        assert "serve.hits" not in counters


class TestNonFiniteAnswer:
    def test_infinite_wl_crit_crosses_the_wire(self, daemon_factory):
        """The reply carries ``{"__float__": "Infinity"}``, so the
        encoder's fallback runs on both the backfill and the memory
        answer."""
        daemon = daemon_factory(coalesce_s=0.05)
        with daemon.client() as client:
            cold = client.query(**INFINITE)
            assert cold["served"] == "backfill"
            assert cold["result"]["value"] == math.inf
            warm = client.query(**INFINITE)
            assert warm["served"] == "memory"
            assert warm["result"]["value"] == math.inf
            assert warm["result"]["method"] == "exact"


class TestProtocolEdges:
    def test_malformed_json_keeps_the_connection(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            response = client.raw(b'{"op": nope}\n')
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert client.ping()  # same connection still serves

    def test_unknown_op_keeps_the_connection(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            response = client.raw(b'{"op": "explode"}\n')
            assert response["error"]["code"] == "bad_request"
            assert client.ping()

    def test_oversized_line_answers_then_closes(self, daemon_factory):
        daemon = daemon_factory(max_line_bytes=512)
        with daemon.client() as client:
            line = json.dumps({"op": "ping", "pad": "x" * 2048}).encode() + b"\n"
            response = client.raw(line)
            assert response["ok"] is False
            assert response["error"]["code"] == "oversized"
            assert client._file.readline() == b""  # daemon hung up
        with daemon.client() as client:
            assert client.ping()  # daemon itself is fine

    def test_semantically_invalid_queries(self, daemon_factory):
        daemon = daemon_factory()
        with daemon.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.query("made_up_metric", design="cmos", vdd=0.6)
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServeError) as excinfo:
                client.query("drnm", design="proposed", vdd=0.65, beta=1.2)
            assert excinfo.value.code == "bad_request"
            assert client.ping()

    def test_client_disconnect_mid_backfill(self, daemon_factory):
        daemon = daemon_factory(coalesce_s=0.2)
        # Fire a cold query and hang up before the answer exists.
        doomed = daemon.client()
        doomed._sock.sendall(protocol.encode_line({"op": "query", **COLD}))
        doomed.close()

        with daemon.client() as client:
            assert _wait(
                lambda: client.status()["backfill"]["batches_completed"] >= 1
            ), "backfill never completed after the client vanished"
            assert _wait(
                lambda: client.status()["counters"].get("serve.disconnects", 0) >= 1
            )
            # The daemon survived and the point landed warm.
            answer = client.query(**COLD)
            assert answer["served"] == "memory"
            assert answer["result"]["method"] == "exact"


class TestBackfill:
    def test_cold_query_backfills_and_stays_warm(self, daemon_factory):
        daemon = daemon_factory(coalesce_s=0.05)
        with daemon.client() as client:
            cold = client.query(**COLD)
            assert cold["served"] == "backfill"
            assert cold["result"]["method"] == "exact"
            warm = client.query(**COLD)
            assert warm["served"] == "memory"
            assert warm["result"]["value"] == cold["result"]["value"]
            status = client.status()
        assert status["counters"]["serve.misses"] == 1
        assert status["backfill"]["batches_completed"] == 1
        assert status["backfill"]["points_completed"] == 1

    def test_manifest_joins_the_backfill_trace(self, daemon_factory, tmp_path):
        from repro.obs.trace import load_trace

        trace_dir = tmp_path / "trace"
        daemon = daemon_factory(coalesce_s=0.05, trace_dir=trace_dir)
        with daemon.client() as client:
            assert client.query(**COLD)["served"] == "backfill"
            manifest = client.metrics()["json"]
        assert load_trace(trace_dir)["trace_ids"] == [manifest["trace_id"]]

    def test_coalesced_clients_share_one_build(self, daemon_factory):
        daemon = daemon_factory(coalesce_s=0.4)

        def ask():
            with daemon.client() as client:
                return client.query(**COLD)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = (f.result(timeout=60) for f in
                             [pool.submit(ask), pool.submit(ask)])
        assert first["served"] == second["served"] == "backfill"
        assert first["result"]["value"] == second["result"]["value"]
        with daemon.client() as client:
            status = client.status()
        assert status["counters"]["serve.backfill.requests"] == 2
        assert status["backfill"]["points_completed"] == 1
        assert status["backfill"]["batches_completed"] == 1

    def test_backfill_depth_rejects_with_overloaded(self, daemon_factory):
        daemon = daemon_factory(coalesce_s=0.6, backfill_depth=1)

        def ask(vdd):
            with daemon.client() as client:
                try:
                    return client.query("hold_power", design="cmos", vdd=vdd)
                except ServeError as exc:
                    return exc

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = [
                f.result(timeout=60)
                for f in [pool.submit(ask, 0.55), pool.submit(ask, 0.52)]
            ]
        errors = [r for r in results if isinstance(r, ServeError)]
        answers = [r for r in results if isinstance(r, dict)]
        assert len(errors) == 1 and errors[0].code == "overloaded"
        assert len(answers) == 1 and answers[0]["served"] == "backfill"

    def test_timeout_leaves_the_backfill_running(
        self, daemon_factory, wait_for_calls
    ):
        daemon = daemon_factory(coalesce_s=0.5, request_timeout_s=0.15)
        with daemon.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.query(**COLD)
            assert excinfo.value.code == "timeout"
            assert _wait(
                lambda: client.status()["backfill"]["batches_completed"] >= 1
            ), "the timed-out backfill was abandoned"
            retry = client.query(**COLD)
            assert retry["served"] == "memory"
            status = client.status()
        assert status["counters"]["serve.timeouts"] == 1
        # Only the miss's backfill wait ran under the timeout; the
        # retry, a hit, ran none.
        assert wait_for_calls == [0.15]

    def test_backfill_landing_race_answers_backfill_failed(self, daemon_factory):
        """A backfill can land and *still* not be servable — a
        concurrent ``char build`` with a newer solver fingerprint can
        recalibrate the store between the batch landing and the
        post-backfill lookup.  That race must come back as a structured
        ``backfill_failed``, not a daemon-side traceback."""
        from repro.char.query import CharQueryError

        daemon = daemon_factory(coalesce_s=0.05)

        def always_missing(**_kwargs):
            raise CharQueryError(
                "entry recalibrated away", reason="missing-entry"
            )

        daemon.daemon.registry.answer = always_missing
        with daemon.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.query(**COLD)
            assert excinfo.value.code == "backfill_failed"
            assert "retry" in excinfo.value.message
            # The daemon survives the race and keeps serving.
            assert client.ping()
            status = client.status()
        assert status["counters"]["serve.backfill.lost"] == 1
        assert status["backfill"]["batches_completed"] == 1


class TestShutdown:
    def test_double_shutdown_is_idempotent(self, daemon_factory, tmp_path):
        metrics_out = tmp_path / "final_metrics.json"
        daemon = daemon_factory(metrics_out=metrics_out)
        with daemon.client() as client:
            first = client.request({"op": "shutdown"})
            assert first["stopping"] is True and first["already"] is False
            try:
                second = client.request({"op": "shutdown"})
            except (ConnectionError, OSError):
                second = None  # drained before the second line arrived
        if second is not None:
            assert second["stopping"] is True and second["already"] is True

        daemon.thread.join(20)
        assert not daemon.thread.is_alive()
        assert not Path(daemon.config.socket_path).exists()
        assert metrics_out.exists()
        assert metrics_out.with_suffix(".prom").exists()
        payload = json.loads(metrics_out.read_text())
        assert payload["experiment_id"] == "serve"
        assert payload["telemetry"]["counters"]["serve.requests"] >= 1

    def test_queries_rejected_while_draining(self, daemon_factory):
        daemon = daemon_factory()
        # Drain with no listeners left: new connections fail, and a
        # repeated programmatic shutdown stays a no-op.
        with daemon.client() as client:
            client.request({"op": "shutdown"})
        daemon.thread.join(20)
        assert not daemon.thread.is_alive()
        with pytest.raises((ConnectionError, OSError, FileNotFoundError)):
            daemon.client()


class TestServeCLI:
    def test_status_and_query_verbs(self, daemon_factory, capsys):
        from repro.cli import main

        daemon = daemon_factory()
        socket_arg = ["--socket", str(daemon.config.socket_path)]

        assert main(["serve", "status", *socket_arg]) == 0
        out = capsys.readouterr().out
        assert "serve daemon pid" in out
        assert "servetest: 2/2 present" in out

        assert main(
            ["serve", "query", "hold_power", "--design", "cmos",
             "--vdd", "0.6", *socket_arg]
        ) == 0
        out = capsys.readouterr().out
        assert "hold_power" in out
        assert "served: memory" in out

        assert main(
            ["serve", "query", "hold_power", "--design", "cmos",
             "--vdd", "0.7", "--json", *socket_arg]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["served"] == "memory"
        assert payload["result"]["method"] == "linear"

    def test_query_error_paths(self, daemon_factory, capsys):
        from repro.cli import main

        daemon = daemon_factory()
        socket_arg = ["--socket", str(daemon.config.socket_path)]
        assert main(
            ["serve", "query", "made_up", "--design", "cmos",
             "--vdd", "0.6", *socket_arg]
        ) == 2
        assert "bad_request" in capsys.readouterr().err
