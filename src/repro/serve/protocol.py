"""The serve wire protocol: JSON lines over a byte stream.

One request per line, one response line per request, in order.  The
transport is a unix-domain socket (default) or a localhost TCP port —
the framing and payloads are identical on both.

Requests are JSON objects with an ``op`` field::

    {"op": "ping"}
    {"op": "query", "metric": "drnm", "design": "proposed", "vdd": 0.65,
     "beta": null, "corner": "tt", "method": "auto", "id": "q1"}
    {"op": "status"}
    {"op": "metrics"}
    {"op": "shutdown"}

Responses echo the request ``id`` (when given) and carry either a
``result`` or a structured ``error``::

    {"ok": true, "id": "q1", "result": {...}, "served": "memory",
     "wall_us": 180.2}
    {"ok": false, "error": {"code": "overloaded", "message": "..."}}

Error codes (``ERROR_CODES``) are part of the protocol contract:

* ``bad_request`` — malformed JSON, missing/unknown fields, or a point
  that can never be characterized (unknown metric/design/corner, a
  metric the design does not define);
* ``oversized`` — the request line exceeded the daemon's byte limit;
  the connection is closed after this response;
* ``overloaded`` — admission control rejected the request (too many
  in-flight requests or a full backfill queue); retry later;
* ``shutting_down`` — the daemon is draining; no new queries;
* ``timeout`` — the per-request budget elapsed (a triggered backfill
  keeps running; retry once it lands);
* ``backfill_failed`` — the point was simulated and failed (the
  failure is recorded in the store index), or it landed but became
  unservable before the answer could be read (a concurrent
  recalibration); retry after the store settles;
* ``internal`` — an unexpected server-side error.

Values ride the same strict-JSON convention as the experiment
artifacts: non-finite floats (an unwritable cell's infinite
``wl_crit`` is data) are encoded as ``{"__float__": "Infinity"}``
objects (:mod:`repro.experiments.io`) — the bare ``NaN``/``Infinity``
literals are rejected on ingress exactly as ``encode_line`` refuses to
emit them (``allow_nan=False``).

Every line goes through one encoder and one request decoder built at
import.  The ``__float__`` walk runs only on a payload that can hold a
non-finite value: ``encode_line`` wraps a payload only after the
strict encoder refused it, and ``decode_line`` unwraps only a line
whose text contains ``__float__`` or a ``\\u`` escape (which could
spell it).  Either way the bytes and values are those of the walk
applied to every line.
"""

from __future__ import annotations

import json
import math

from repro.experiments.io import encode_tree

__all__ = [
    "PROTOCOL_SCHEMA",
    "MAX_LINE_BYTES",
    "ERROR_CODES",
    "OPS",
    "ProtocolError",
    "parse_request",
    "encode_line",
    "decode_line",
    "ok_response",
    "error_response",
]

PROTOCOL_SCHEMA = "repro.serve/v1"

MAX_LINE_BYTES = 64 * 1024
"""Default request-line byte budget; the daemon closes connections
that exceed it (after sending an ``oversized`` error)."""

OPS = ("ping", "query", "status", "metrics", "shutdown")

ERROR_CODES = (
    "bad_request",
    "oversized",
    "overloaded",
    "shutting_down",
    "timeout",
    "backfill_failed",
    "internal",
)

_QUERY_REQUIRED = ("metric", "design", "vdd")
_QUERY_OPTIONAL = {"beta": None, "corner": "tt", "method": "auto"}


class ProtocolError(ValueError):
    """A request that violates the wire contract."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


def _reject_constant(literal: str):
    """``parse_constant`` hook: the non-standard ``NaN``/``Infinity``
    JSON literals are rejected on ingress — egress enforces
    ``allow_nan=False``, so accepting them here would admit values the
    protocol can never echo back."""
    raise ProtocolError(
        "bad_request",
        f"non-standard JSON literal {literal} is not allowed; "
        'non-finite values ride {"__float__": ...} objects',
    )


# Built once: ``json.dumps``/``json.loads`` with keyword arguments
# construct a fresh encoder or decoder on every call.
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))
_REQUEST_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _text(line: bytes | str) -> str:
    """``line`` as text, decoded exactly as :func:`json.loads` decodes
    bytes (UTF-8/16/32 by :func:`json.detect_encoding`, a UTF-8 BOM
    dropped)."""
    if isinstance(line, str):
        return line
    return line.decode(json.detect_encoding(line), "surrogatepass")


def _finite(name: str, value) -> float:
    """``value`` as a finite float, rejecting booleans (which are
    ``int`` to ``isinstance``) and non-finite results either from
    numeric strings (``"nan"``) or arithmetic."""
    if isinstance(value, bool):
        raise ProtocolError("bad_request", f"{name} {value!r} is not a number")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ProtocolError("bad_request", f"{name} {value!r} is not a number")
    if not math.isfinite(number):
        raise ProtocolError("bad_request", f"{name} must be finite, got {number!r}")
    return number


def parse_request(line: bytes | str, max_bytes: int = MAX_LINE_BYTES) -> dict:
    """Validate one request line into a normalized request dict.

    Raises :class:`ProtocolError` (``oversized`` / ``bad_request``) on
    any violation; never raises anything else for untrusted input.
    """
    raw = line.encode() if isinstance(line, str) else line
    if len(raw) > max_bytes:
        raise ProtocolError(
            "oversized", f"request line is {len(raw)} bytes (limit {max_bytes})"
        )
    try:
        payload = _REQUEST_DECODER.decode(_text(raw))
    except ProtocolError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_request", f"request is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            "bad_request", f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    request: dict = {"op": op}
    request_id = payload.get("id")
    if request_id is not None:
        if isinstance(request_id, bool) or not isinstance(request_id, (str, int)):
            raise ProtocolError("bad_request", "id must be a string or integer")
        request["id"] = request_id
    if op != "query":
        return request

    for field in _QUERY_REQUIRED:
        if field not in payload:
            raise ProtocolError("bad_request", f"query is missing {field!r}")
    metric, design = payload["metric"], payload["design"]
    if not isinstance(metric, str) or not isinstance(design, str):
        raise ProtocolError("bad_request", "metric and design must be strings")
    vdd = _finite("vdd", payload["vdd"])
    beta = payload.get("beta", _QUERY_OPTIONAL["beta"])
    if beta is not None:
        beta = _finite("beta", beta)
    corner = payload.get("corner", _QUERY_OPTIONAL["corner"])
    if not isinstance(corner, str):
        raise ProtocolError("bad_request", "corner must be a string")
    method = payload.get("method", _QUERY_OPTIONAL["method"])
    if method not in ("auto", "linear", "cubic", "nearest"):
        raise ProtocolError("bad_request", f"unknown method {method!r}")
    request.update(metric=metric, design=design, vdd=vdd, beta=beta,
                   corner=corner, method=method)
    return request


def _decode_tree(value):
    from repro.experiments.io import _decode_value

    if isinstance(value, dict):
        if "__float__" in value:
            return _decode_value(value)
        return {k: _decode_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_tree(v) for v in value]
    return value


def encode_line(payload: dict) -> bytes:
    """One response/request dict as a newline-terminated JSON line.

    The strict encoder raises ``ValueError`` on a non-finite float;
    only then is the payload re-encoded through :func:`encode_tree`,
    which changes nothing else, so the bytes are the same either way.
    """
    try:
        text = _ENCODER.encode(payload)
    except ValueError:
        text = _ENCODER.encode(encode_tree(payload))
    return (text + "\n").encode()


def decode_line(line: bytes | str) -> dict:
    """Parse a received line, unwrapping the non-finite float encoding.

    A ``{"__float__": ...}`` object can only be in a line whose text
    spells ``__float__``, directly or through a ``\\u`` escape; any
    other line skips the walk.
    """
    text = _text(line)
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("protocol line must be a JSON object")
    if "__float__" in text or "\\u" in text:
        return _decode_tree(payload)
    return payload


def ok_response(request: dict | None = None, **fields) -> dict:
    response = {"ok": True, **fields}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response


def error_response(
    code: str, message: str, request: dict | None = None
) -> dict:
    assert code in ERROR_CODES, code
    response = {"ok": False, "error": {"code": code, "message": message}}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response
