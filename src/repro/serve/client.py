"""Blocking client for the serve protocol.

The CLI verbs, the load generator, and the smoke script all talk to
the daemon through this one class — plain sockets, no asyncio, so a
client is importable anywhere (benchmark worker threads included).

::

    with ServeClient(socket_path="results/serve.sock") as client:
        answer = client.query("drnm", design="proposed", vdd=0.65)

``request`` sends one JSON line and reads one response line;
:class:`ServeError` carries the structured protocol error code on any
``ok: false`` response.
"""

from __future__ import annotations

import socket
from pathlib import Path

from repro.serve import protocol

__all__ = ["ServeError", "ServeClient"]


class ServeError(RuntimeError):
    """A structured protocol error (``code`` is from ``ERROR_CODES``)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One connection to a serve daemon (unix socket or localhost TCP)."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        tcp_port: int | None = None,
        timeout_s: float = 120.0,
    ):
        if socket_path is None and tcp_port is None:
            raise ValueError("need a unix socket path or a TCP port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout_s)
                self._sock.connect(str(socket_path))
            except OSError:
                self._sock.close()
                raise
        else:
            self._sock = socket.create_connection(
                ("127.0.0.1", tcp_port), timeout=timeout_s
            )
        self._file = self._sock.makefile("rb")

    # -- transport ---------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """One request line out, one response line back.

        Returns the decoded response dict on ``ok: true``; raises
        :class:`ServeError` on a structured error, ``ConnectionError``
        when the daemon hangs up without answering (a reply cut off
        before its newline included).
        """
        self._sock.sendall(protocol.encode_line(payload))
        line = self._read_reply()
        if line is None:
            raise ConnectionError("daemon closed the connection")
        response = protocol.decode_line(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                str(error.get("code", "internal")),
                str(error.get("message", "unknown error")),
            )
        return response

    def raw(self, line: bytes) -> dict | None:
        """Send a pre-encoded line verbatim and read one response.

        For protocol-edge testing (malformed JSON, oversized lines):
        no client-side validation, returns ``None`` when the daemon
        hangs up instead of answering.
        """
        self._sock.sendall(line)
        response = self._read_reply()
        return None if response is None else protocol.decode_line(response)

    def _read_reply(self) -> bytes | None:
        """One reply line, or ``None`` when the daemon hung up first.

        Every reply ends in a newline; bytes without one are what a
        daemon that died mid-write left, not a reply.
        """
        line = self._file.readline()
        return line if line.endswith(b"\n") else None

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs -------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def query(
        self,
        metric: str,
        design: str,
        vdd: float,
        beta: float | None = None,
        corner: str = "tt",
        method: str = "auto",
        request_id: str | int | None = None,
    ) -> dict:
        """One metric query; returns the full response (``result``,
        ``served``, ``wall_us``)."""
        payload = {
            "op": "query", "metric": metric, "design": design, "vdd": vdd,
            "beta": beta, "corner": corner, "method": method,
        }
        if request_id is not None:
            payload["id"] = request_id
        return self.request(payload)

    def status(self) -> dict:
        return self.request({"op": "status"})["status"]

    def metrics(self) -> dict:
        return self.request({"op": "metrics"})["metrics"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})
