"""Persistence for experiment results (JSON and CSV).

Long campaigns (the Monte-Carlo figures) should be run once and kept;
these helpers round-trip :class:`ExperimentResult` through JSON and
export the rows as CSV for external plotting.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from repro.experiments.common import ExperimentResult

__all__ = ["encode_tree", "save_json", "load_json", "save_csv"]

_INF_TOKEN = "Infinity"
_NEG_INF_TOKEN = "-Infinity"
_NAN_TOKEN = "NaN"


def _encode_value(value):
    if isinstance(value, float):
        if math.isinf(value):
            return {"__float__": _INF_TOKEN if value > 0 else _NEG_INF_TOKEN}
        if math.isnan(value):
            return {"__float__": _NAN_TOKEN}
    return value


def encode_tree(value):
    """Strict-JSON form of a tree of dicts, lists and tuples: every
    non-finite float is wrapped as :func:`save_json` wraps it."""
    if isinstance(value, dict):
        return {k: encode_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_tree(v) for v in value]
    return _encode_value(value)


def _decode_value(value):
    if isinstance(value, dict) and "__float__" in value:
        token = value["__float__"]
        if token == _NAN_TOKEN:
            return math.nan
        return math.inf if token == _INF_TOKEN else -math.inf
    return value


def save_json(result: ExperimentResult, path: str | Path) -> Path:
    """Write a result to a JSON file; returns the path written.

    Non-finite floats (diverged or failed-sample metrics) are encoded
    as ``{"__float__": "Infinity" | "-Infinity" | "NaN"}`` objects, so
    the file is strict standard JSON — ``allow_nan=False`` enforces
    that no bare ``Infinity``/``NaN`` token can slip through.
    """
    path = Path(path)
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "header": result.header,
        "rows": [[_encode_value(v) for v in row] for row in result.rows],
        "notes": result.notes,
    }
    path.write_text(json.dumps(payload, indent=2, allow_nan=False))
    return path


def load_json(path: str | Path) -> ExperimentResult:
    """Read a result previously written by :func:`save_json`."""
    payload = json.loads(Path(path).read_text())
    for key in ("experiment_id", "title", "header", "rows"):
        if key not in payload:
            raise ValueError(f"result file is missing the {key!r} field")
    result = ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        header=list(payload["header"]),
        notes=list(payload.get("notes", [])),
    )
    for row in payload["rows"]:
        result.add_row(*[_decode_value(v) for v in row])
    return result


def _csv_value(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def save_csv(result: ExperimentResult, path: str | Path) -> Path:
    """Write the result rows as CSV (header included; non-finite floats
    become the spreadsheet-friendly ``inf``/``-inf``/``nan`` strings)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.header)
        for row in result.rows:
            writer.writerow([_csv_value(v) for v in row])
    return path
