"""The on-disk characterization store: JSONL index + npz grid payloads.

Layout under the store directory (default ``results/char/``)::

    index.jsonl            # append-only entry index, content-addressed
    grids/<digest>.npz     # compiled grid payloads, one per spec
    checkpoints/<digest>.jsonl   # engine checkpoints of in-flight builds

The **index** is the source of truth: one header line, then one JSON
line per completed entry, keyed by the entry fingerprint
(:mod:`repro.char.fingerprint`).  Appends are flushed per line, so a
killed build loses at most the entries still in flight; duplicate
fingerprints resolve last-wins (a re-characterization supersedes the
old value without rewriting history).  The index is strict JSON: a
non-finite value (a diverged metric is data) is written as
``{"__float__": "Infinity" | "-Infinity" | "NaN"}``, the form result
files and the serve wire use (:func:`repro.experiments.io.encode_tree`);
the bare ``Infinity``/``NaN`` literals of older indexes still read.

Entries are **never invalidated in place**: a solver or device change
changes the fingerprints the build layer asks for, so stale entries
simply stop being found.  ``repro char status`` reports them.

The **grid payloads** are compiled npz snapshots of one spec's
completed grid (value + presence arrays over the spec axes) written
after every successful build — the query layer loads them directly
instead of re-scanning the index.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.char.fingerprint import CHAR_SCHEMA, entry_fingerprint
from repro.char.spec import CharEntry, CharSpec
from repro.experiments.io import _decode_value, encode_tree
from repro.telemetry import core as telemetry

__all__ = ["CharStore", "StoreStatus", "DEFAULT_STORE_DIR", "spec_digest"]

DEFAULT_STORE_DIR = "results/char"

_INDEX_SCHEMA = "repro.char.index/v1"
_GRID_SCHEMA = "repro.char.grid/v1"


@dataclass
class StoreStatus:
    """How much of one spec the store currently holds."""

    spec: str
    total: int
    present: int
    failed: int
    stale: int

    @property
    def missing(self) -> int:
        return self.total - self.present

    def to_json(self) -> dict:
        return {
            "spec": self.spec,
            "total": self.total,
            "present": self.present,
            "missing": self.missing,
            "failed": self.failed,
            "stale": self.stale,
        }

    def summary(self) -> str:
        return (
            f"{self.spec}: {self.present}/{self.total} entries present, "
            f"{self.missing} missing ({self.failed} recorded failures, "
            f"{self.stale} stale from older solver/device configurations)"
        )


class CharStore:
    """Directory-backed characterization store; see the module docstring."""

    def __init__(self, directory: str | Path = DEFAULT_STORE_DIR):
        self.directory = Path(directory)
        self._index_cache: dict[str, dict] | None = None
        self._index_token: tuple[int, int] | None = None
        # The daemon stats the index on every read; a str skips
        # building a pathlib path each time.
        self._index_file = str(self.index_path)

    # -- paths -------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.directory / "index.jsonl"

    def grid_path(self, spec: CharSpec) -> Path:
        return self.directory / "grids" / f"{spec_digest(spec)}.npz"

    def checkpoint_path(self, spec: CharSpec) -> Path:
        return self.directory / "checkpoints" / f"{spec_digest(spec)}.jsonl"

    # -- index reading -----------------------------------------------------

    def index_token(self) -> tuple[int, int] | None:
        """Cheap change token for the index: ``(mtime_ns, size)``.

        Size participates because a concurrent writer can append twice
        within one mtime tick — mtime alone would serve a stale cache.
        ``None`` when no index exists yet.
        """
        try:
            stat = os.stat(self._index_file)
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def refresh(self) -> None:
        """Drop the index cache so the next read hits the disk."""
        self._index_cache, self._index_token = None, None

    def load_index(self) -> dict[str, dict]:
        """All entry records by fingerprint (last-wins), cached by
        ``(mtime, size)`` token.

        Reads tolerate a concurrent writer: a torn trailing line (kill
        or in-flight append) is ignored, and a torn *header* (the index
        file caught mid-creation) reads as an empty index without being
        cached, so the next read sees the completed file.  An index
        written by a different schema still raises.
        """
        token = self.index_token()
        if token is None:
            self._index_cache, self._index_token = {}, None
            return {}
        if self._index_cache is not None and self._index_token == token:
            return self._index_cache

        records: dict[str, dict] = {}
        with self.index_path.open() as handle:
            header_line = handle.readline().strip()
            if header_line:
                try:
                    header = json.loads(header_line)
                except json.JSONDecodeError:
                    # Mid-creation: the writer has opened the file but
                    # not finished the header line yet.
                    return {}
                if header.get("schema") != _INDEX_SCHEMA:
                    raise ValueError(
                        f"{self.index_path} has schema {header.get('schema')!r}, "
                        f"expected {_INDEX_SCHEMA!r}"
                    )
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line, object_hook=_decode_value)
                except json.JSONDecodeError:
                    break  # torn tail from an interrupted append
                records[str(record["fp"])] = record
        self._index_cache, self._index_token = records, token
        return records

    def index_summary(self) -> dict:
        """Whole-index counts for machine consumers (``status --json``)."""
        records = self.load_index()
        ok = sum(1 for r in records.values() if r.get("status") == "ok")
        return {
            "path": str(self.index_path),
            "entries": len(records),
            "ok": ok,
            "failed": len(records) - ok,
        }

    def get(self, fingerprint: str) -> dict | None:
        return self.load_index().get(fingerprint)

    def value(self, point, metric: str) -> float | None:
        """The stored value at one point, or ``None`` when absent/failed."""
        record = self.get(entry_fingerprint(point, metric))
        if record is None or record.get("status") != "ok":
            return None
        return float(record["value"])

    # -- index writing -----------------------------------------------------

    def append(self, records: list[dict]) -> None:
        """Append entry records, creating the index (with header) first.

        Each line is flushed immediately — an interrupted build keeps
        everything that was appended before the kill.
        """
        if not records:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        fresh = not self.index_path.exists()
        with self.index_path.open("a") as handle:
            if fresh:
                handle.write(json.dumps({"schema": _INDEX_SCHEMA}) + "\n")
            for record in records:
                handle.write(json.dumps(encode_tree(record), allow_nan=False) + "\n")
                handle.flush()
        self._index_cache = None
        tel = telemetry.active()
        if tel is not None:
            tel.count("char.store.appends", len(records))

    @staticmethod
    def entry_record(entry: CharEntry, fingerprint: str, *, value=None,
                     status: str = "ok", wall_s: float = 0.0,
                     error_type: str | None = None, error: str | None = None) -> dict:
        record = {
            "fp": fingerprint,
            "schema": CHAR_SCHEMA,
            **entry.point.coords(),
            "metric": entry.metric,
            "status": status,
            "value": value,
            "wall_s": round(float(wall_s), 6),
        }
        if error_type is not None:
            record["error_type"] = error_type
            record["error"] = error
        return record

    # -- spec-level views --------------------------------------------------

    def status(self, spec: CharSpec) -> StoreStatus:
        """Coverage of one spec: present / failed / missing / stale."""
        index = self.load_index()
        coords_seen = {_coords_key(r): r for r in index.values()}
        present = failed = stale = 0
        entries = spec.entries()
        for entry in entries:
            fp = entry_fingerprint(entry.point, entry.metric)
            record = index.get(fp)
            if record is not None:
                if record.get("status") == "ok":
                    present += 1
                else:
                    failed += 1
                continue
            old = coords_seen.get(_entry_coords_key(entry))
            if old is not None:
                stale += 1
        return StoreStatus(
            spec=spec.name,
            total=len(entries),
            present=present,
            failed=failed,
            stale=stale,
        )

    # -- compiled grid payloads -------------------------------------------

    def compile_grid(self, spec: CharSpec) -> Path:
        """Snapshot the spec's completed entries into an npz grid payload.

        Arrays are indexed ``[design, corner, beta, vdd]`` over the
        spec's axes; absent or failed entries are NaN with a zero
        presence mask.  Written atomically so readers never observe a
        partial payload.
        """
        index = self.load_index()
        shape = (
            len(spec.designs), len(spec.corners), len(spec.betas), len(spec.vdds),
        )
        axis_of = {
            "design": {v: i for i, v in enumerate(spec.designs)},
            "corner": {v: i for i, v in enumerate(spec.corners)},
            "beta": {v: i for i, v in enumerate(spec.betas)},
            "vdd": {v: i for i, v in enumerate(spec.vdds)},
        }
        values = {m: np.full(shape, np.nan) for m in spec.metrics}
        mask = {m: np.zeros(shape, dtype=np.int8) for m in spec.metrics}
        fps: dict[str, np.ndarray] = {
            m: np.full(shape, "", dtype="U64") for m in spec.metrics
        }
        for entry in spec.entries():
            point = entry.point
            loc = (
                axis_of["design"][point.design],
                axis_of["corner"][point.corner],
                axis_of["beta"][point.beta],
                axis_of["vdd"][point.vdd],
            )
            fp = entry_fingerprint(point, entry.metric)
            fps[entry.metric][loc] = fp
            record = index.get(fp)
            if record is not None and record.get("status") == "ok":
                values[entry.metric][loc] = float(record["value"])
                mask[entry.metric][loc] = 1

        path = self.grid_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {"spec_json": np.array(json.dumps(spec.to_json()))}
        for metric in spec.metrics:
            arrays[f"value_{metric}"] = values[metric]
            arrays[f"mask_{metric}"] = mask[metric]
            arrays[f"fp_{metric}"] = fps[metric]
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, format=_GRID_SCHEMA, **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


def spec_digest(spec: CharSpec) -> str:
    """Filename-safe digest of a spec's full axis/metric content."""
    import hashlib

    canonical = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return f"{spec.name}-{hashlib.sha256(canonical.encode()).hexdigest()[:12]}"


def _coords_key(record: dict) -> tuple:
    return (
        record.get("design"), record.get("corner"),
        record.get("beta"), record.get("vdd"), record.get("metric"),
    )


def _entry_coords_key(entry: CharEntry) -> tuple:
    c = entry.point.coords()
    return (c["design"], c["corner"], c["beta"], c["vdd"], entry.metric)
