"""ServeClient against a server that dies mid-reply: a reply cut off
before its newline is a hang-up, not a JSON error."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient

REPLY = protocol.encode_line(
    {"ok": True, "result": {"value": 1.25, "unit": "V"}, "served": "memory",
     "wall_us": 80.0}
)


@pytest.fixture
def dying_server(tmp_path):
    """A unix socket server that reads one request line, writes
    ``reply`` and closes the connection."""
    path = tmp_path / "dying.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(1)
    threads = []

    def serve(reply: bytes) -> str:
        def once():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as requests:
                requests.readline()
                conn.sendall(reply)

        thread = threading.Thread(target=once, daemon=True)
        thread.start()
        threads.append(thread)
        return str(path)

    yield serve
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive(), "the dying server never hung up"
    listener.close()


class TestHangUp:
    def test_half_a_reply_raises_connection_error(self, dying_server):
        with ServeClient(socket_path=dying_server(REPLY[: len(REPLY) // 2]),
                         timeout_s=5.0) as client:
            with pytest.raises(ConnectionError):
                client.ping()

    def test_reply_without_its_newline_raises_connection_error(self, dying_server):
        with ServeClient(socket_path=dying_server(REPLY[:-1]),
                         timeout_s=5.0) as client:
            with pytest.raises(ConnectionError):
                client.ping()

    def test_raw_reads_a_cut_reply_as_no_reply(self, dying_server):
        with ServeClient(socket_path=dying_server(REPLY[:-1]),
                         timeout_s=5.0) as client:
            assert client.raw(b'{"op": "ping"}\n') is None

    def test_whole_reply_is_decoded(self, dying_server):
        with ServeClient(socket_path=dying_server(REPLY), timeout_s=5.0) as client:
            assert client.request({"op": "ping"}) == protocol.decode_line(REPLY)
