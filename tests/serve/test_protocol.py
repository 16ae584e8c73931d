"""Wire-protocol unit tests: request validation, framing, float encoding."""

from __future__ import annotations

import codecs
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.io import encode_tree
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, parse_request


def _code(excinfo) -> str:
    return excinfo.value.code


class TestParseRequest:
    def test_minimal_ops(self):
        for op in ("ping", "status", "metrics", "shutdown"):
            assert parse_request(json.dumps({"op": op}).encode()) == {"op": op}

    def test_query_defaults(self):
        request = parse_request(
            b'{"op": "query", "metric": "drnm", "design": "proposed", "vdd": 0.65}'
        )
        assert request == {
            "op": "query", "metric": "drnm", "design": "proposed",
            "vdd": 0.65, "beta": None, "corner": "tt", "method": "auto",
        }

    def test_id_passthrough(self):
        assert parse_request(b'{"op": "ping", "id": "q1"}')["id"] == "q1"
        assert parse_request(b'{"op": "ping", "id": 7}')["id"] == 7

    def test_bad_id_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "ping", "id": [1]}')
        assert _code(excinfo) == "bad_request"

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": nope}')
        assert _code(excinfo) == "bad_request"
        assert "not valid JSON" in excinfo.value.message

    def test_invalid_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'\xff\xfe{"op": "ping"}')
        assert _code(excinfo) == "bad_request"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'[1, 2, 3]')
        assert _code(excinfo) == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "explode"}')
        assert "explode" in excinfo.value.message

    def test_oversized(self):
        line = json.dumps({"op": "ping", "pad": "x" * 100}).encode()
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line, max_bytes=64)
        assert _code(excinfo) == "oversized"

    def test_query_missing_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "query", "metric": "drnm", "vdd": 0.6}')
        assert "design" in excinfo.value.message

    @pytest.mark.parametrize(
        "patch",
        [
            {"vdd": "zero point six-ish"},
            {"beta": "wide"},
            {"corner": 12},
            {"method": "quantum"},
            {"metric": 3},
        ],
    )
    def test_query_bad_values(self, patch):
        payload = {"op": "query", "metric": "drnm", "design": "proposed",
                   "vdd": 0.65, **patch}
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps(payload).encode())
        assert _code(excinfo) == "bad_request"

    def test_numeric_strings_accepted(self):
        request = parse_request(
            b'{"op": "query", "metric": "drnm", "design": "proposed",'
            b' "vdd": "0.65", "beta": "1.5"}'
        )
        assert request["vdd"] == 0.65
        assert request["beta"] == 1.5

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_nonstandard_json_literals(self, literal):
        """Python's json module happily *parses* NaN/Infinity, but the
        protocol's egress is strict JSON (``allow_nan=False``) — an
        accepted non-finite vdd would make the daemon's own response
        unencodable.  Reject at the door instead."""
        raw = (f'{{"op": "query", "metric": "drnm", "design": "proposed",'
               f' "vdd": {literal}}}').encode()
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(raw)
        assert _code(excinfo) == "bad_request"
        assert "__float__" in excinfo.value.message

    def test_rejects_nonstandard_literal_anywhere_in_the_payload(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "ping", "id": NaN}')
        assert _code(excinfo) == "bad_request"

    def test_rejects_non_finite_numeric_strings(self):
        payload = {"op": "query", "metric": "drnm", "design": "proposed",
                   "vdd": "nan"}
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps(payload).encode())
        assert _code(excinfo) == "bad_request"
        assert "finite" in excinfo.value.message

    def test_rejects_bool_request_id(self):
        """``True`` is an ``int`` in Python — the isinstance id check
        must exclude bools explicitly or a ``true`` id round-trips as a
        number the client never sent."""
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "ping", "id": true}')
        assert _code(excinfo) == "bad_request"

    @pytest.mark.parametrize("field", ["vdd", "beta"])
    def test_rejects_bool_numerics(self, field):
        payload = {"op": "query", "metric": "drnm", "design": "proposed",
                   "vdd": 0.65, field: True}
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps(payload).encode())
        assert _code(excinfo) == "bad_request"


class TestFraming:
    def test_round_trip(self):
        payload = {"ok": True, "result": {"value": 1.25, "coords": {"beta": None}}}
        line = protocol.encode_line(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert protocol.decode_line(line) == payload

    def test_non_finite_floats(self):
        payload = {"ok": True, "values": [math.inf, -math.inf, math.nan], "n": 1}
        line = protocol.encode_line(payload)
        json.loads(line)  # strict JSON: no bare Infinity/NaN literals
        assert b"__float__" in line
        decoded = protocol.decode_line(line)
        assert decoded["values"][0] == math.inf
        assert decoded["values"][1] == -math.inf
        assert math.isnan(decoded["values"][2])

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            protocol.decode_line(b"[1]\n")

    def test_response_helpers_echo_id(self):
        request = {"op": "query", "id": "q9"}
        assert protocol.ok_response(request, pong=True)["id"] == "q9"
        error = protocol.error_response("timeout", "too slow", request)
        assert error["id"] == "q9"
        assert error["error"]["code"] == "timeout"
        assert protocol.ok_response({"op": "ping"}) == {"ok": True}


# Payload trees as the daemon and client build them, plus the shapes
# that can trip a shortcut: non-finite floats at any depth, non-ASCII
# text (every such character is a ``\u`` escape on the wire), and
# ``__float__`` as a value or a key.
_LEAVES = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.none()
    | st.booleans()
    | st.integers()
    | st.text()
    | st.just("__float__")
)
_KEYS = st.text() | st.just("__float__")
_TREES = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
    ),
    max_leaves=12,
)
_PAYLOADS = st.dictionaries(_KEYS, _TREES, max_size=5)


def _walked_line(payload) -> bytes:
    """The wire bytes when every payload is walked before encoding."""
    text = json.dumps(encode_tree(payload), allow_nan=False, separators=(",", ":"))
    return (text + "\n").encode()


def _walked_decode(line: bytes):
    """The decode that walks every line."""
    return protocol._decode_tree(json.loads(line))


def _canonical(value):
    """``value`` with types spelled out and NaN comparable to NaN."""
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, value)


class TestWireIdentity:
    """The shortcuts (encode first, walk only on a non-finite value;
    decode, walk only a line that can spell ``__float__``) change no
    byte and no value."""

    @given(payload=_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_the_walk_on_every_line(self, payload):
        line = protocol.encode_line(payload)
        assert line == _walked_line(payload)
        assert _canonical(protocol.decode_line(line)) == _canonical(
            _walked_decode(line)
        )
        assert _canonical(protocol.decode_line(line.decode())) == _canonical(
            _walked_decode(line)
        )

    def test_escaped_float_key_still_decodes(self):
        line = b'{"ok":true,"value":{"\\u005f_float__":"Infinity"}}\n'
        assert b"__float__" not in line
        assert protocol.decode_line(line) == {"ok": True, "value": math.inf}

    def test_finite_payload_skips_the_walk(self, monkeypatch):
        def refuse(value):
            raise AssertionError("walked a finite payload")

        monkeypatch.setattr(protocol, "encode_tree", refuse)
        monkeypatch.setattr(protocol, "_decode_tree", refuse)
        payload = {"ok": True, "result": {"value": 1.25, "notes": ["x"]}}
        assert protocol.decode_line(protocol.encode_line(payload)) == payload

    @pytest.mark.parametrize(
        "encode",
        [
            lambda text: codecs.BOM_UTF8 + text.encode(),
            lambda text: text.encode("utf-16"),
            lambda text: text.encode("utf-16-le"),
            lambda text: text.encode("utf-32"),
        ],
        ids=["utf-8-bom", "utf-16", "utf-16-le", "utf-32"],
    )
    def test_parse_request_decodes_bytes_as_json_loads(self, encode):
        raw = encode('{"op": "ping", "id": "q\u00e9"}')
        assert json.loads(raw) == {"op": "ping", "id": "q\u00e9"}
        assert parse_request(raw) == json.loads(raw)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(encode('{"op": "ping", "id": NaN}'))
        assert _code(excinfo) == "bad_request"
