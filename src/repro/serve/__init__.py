"""Online characterization service (``repro.serve``).

The serving layer over the :mod:`repro.char` store: one long-running
asyncio daemon that answers metric queries from in-memory
:class:`~repro.char.query.CharGrid` surrogates, turns cache misses into
coalesced, checkpointed :mod:`repro.engine` build batches, and streams
the results back to every waiting client when the grids land.

* :mod:`repro.serve.protocol` — the JSON-lines wire protocol (ops,
  error codes, non-finite float encoding, line limits).
* :mod:`repro.serve.registry` — in-memory grids + exact index lookups,
  with store-change detection and reload.
* :mod:`repro.serve.backfill` — the coalescing miss queue: misses →
  deterministic ad-hoc specs → ``build_grid`` batches → resolved
  futures.
* :mod:`repro.serve.daemon` — the event loop: admission control,
  per-request timeouts, graceful drain, telemetry and its run
  manifest.
* :mod:`repro.serve.client` — the blocking client the CLI verbs, load
  generator, and smoke tests use.

Quick start::

    $ python -m repro char build --spec nominal
    $ python -m repro serve start --spec nominal &
    $ python -m repro serve query drnm --design proposed --vdd 0.65

Backfill builds run ``--jobs`` worker processes, which is how one
daemon spreads cold misses over several cores.
"""

from repro.serve.backfill import (
    BackfillFailed,
    BackfillOverloaded,
    BackfillQueue,
    MissKey,
    batch_specs,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeConfig, ServeDaemon, serve
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.registry import BACKFILLABLE_REASONS, GridRegistry, validate_point

__all__ = [
    "BACKFILLABLE_REASONS",
    "BackfillFailed",
    "BackfillOverloaded",
    "BackfillQueue",
    "ERROR_CODES",
    "GridRegistry",
    "MAX_LINE_BYTES",
    "MissKey",
    "OPS",
    "PROTOCOL_SCHEMA",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeError",
    "batch_specs",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "parse_request",
    "serve",
    "validate_point",
]
