"""JSONL run checkpoints: one header line, then one line per outcome.

The checkpoint is an append-only log.  Line 1 is a header identifying
the run (schema, ``run_key``, root seed); every following line is one
:class:`~repro.engine.jobs.TaskOutcome` record, flushed as soon as the
task finishes, so a killed run loses at most the tasks that were still
in flight.  Resuming replays the completed indices and computes only
the rest; because task seeds derive from ``(root_seed, index)``, a
resumed run is bit-identical to an uninterrupted one — and a run may
even be *extended* to a larger task count on resume, reusing the
prefix it already computed.  Resuming keeps only the records of the
tasks the resumed run asks for: a resume asking for fewer tasks (or
other ones, such as Monte-Carlo chunks over new member ranges) drops
the rest from the log.

Values use Python's JSON dialect (``Infinity``/``NaN`` literals are
legal), matching the Monte-Carlo convention that a diverged metric is
data, not an error.
"""

from __future__ import annotations

import json
import os
from collections.abc import Collection
from pathlib import Path

from repro.engine.jobs import TaskOutcome

__all__ = ["CheckpointLog", "CheckpointMismatch"]

CHECKPOINT_SCHEMA = "repro.engine.checkpoint/v1"


class CheckpointMismatch(RuntimeError):
    """The on-disk checkpoint belongs to a different run configuration."""


class CheckpointLog:
    """Append-only JSONL checkpoint bound to one ``(run_key, root_seed)``.

    ``run_key`` names the *work* (experiment, metric, parameters — but
    not the task count); resuming with a different key or seed raises
    :class:`CheckpointMismatch` instead of silently mixing runs.
    """

    def __init__(self, path: str | Path, run_key: str, root_seed: int):
        self.path = Path(path)
        self.run_key = str(run_key)
        self.root_seed = int(root_seed)
        self._handle = None

    # -- reading -----------------------------------------------------------

    def load(self) -> dict[int, TaskOutcome]:
        """Completed outcomes by index; ``{}`` if no checkpoint exists.

        Truncated trailing lines (the signature of a kill mid-write) are
        ignored; a header that does not match this run raises.
        """
        if not self.path.exists():
            return {}
        outcomes: dict[int, TaskOutcome] = {}
        with self.path.open() as handle:
            header_line = handle.readline()
            if not header_line.strip():
                return {}
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise CheckpointMismatch(
                    f"unreadable checkpoint header in {self.path}"
                ) from exc
            if header.get("schema") != CHECKPOINT_SCHEMA:
                raise CheckpointMismatch(
                    f"{self.path} has schema {header.get('schema')!r}, "
                    f"expected {CHECKPOINT_SCHEMA!r}"
                )
            if header.get("run_key") != self.run_key:
                raise CheckpointMismatch(
                    f"{self.path} belongs to run {header.get('run_key')!r}, "
                    f"not {self.run_key!r}; delete it or drop --resume"
                )
            if header.get("root_seed") != self.root_seed:
                raise CheckpointMismatch(
                    f"{self.path} was written with --seed {header.get('root_seed')}, "
                    f"not {self.root_seed}; delete it or rerun with the same seed"
                )
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail from an interrupted write
                outcomes[int(record["index"])] = TaskOutcome.from_record(record)
        return outcomes

    # -- writing -----------------------------------------------------------

    def open_fresh(self) -> None:
        """Truncate and write a new header (non-resumed runs)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")
        self._write_line(
            {
                "schema": CHECKPOINT_SCHEMA,
                "run_key": self.run_key,
                "root_seed": self.root_seed,
            }
        )

    def open_resumed(self, keep: Collection[int] | None = None) -> dict[int, TaskOutcome]:
        """Load completed outcomes, then reopen the log for appending.

        ``keep`` names the task indices the resumed run asks for; when
        given, the returned outcomes and the compacted log hold only
        those, so a record no run asks for any more (a superseded
        Monte-Carlo chunk) is dropped instead of carried forever.  A
        missing file degrades to :meth:`open_fresh` — ``--resume`` on a
        first run is not an error.
        """
        done = self.load()
        if not done and not self.path.exists():
            self.open_fresh()
            return {}
        if keep is not None:
            keep = set(keep)
            done = {index: o for index, o in done.items() if index in keep}
        # Rewrite compacted: header + the kept outcomes that survived parsing.
        # This drops any torn tail so the appended lines stay parseable.
        # The rewrite goes to a sibling file that replaces the log only
        # once complete, so a kill mid-rewrite loses no finished outcome.
        compacted = self.path.with_name(self.path.name + ".tmp")
        self._handle = compacted.open("w")
        self._write_line(
            {
                "schema": CHECKPOINT_SCHEMA,
                "run_key": self.run_key,
                "root_seed": self.root_seed,
            }
        )
        for index in sorted(done):
            self._write_line(done[index].to_record())
        os.replace(compacted, self.path)
        return done

    def append(self, outcome: TaskOutcome) -> None:
        if self._handle is None:
            raise RuntimeError("checkpoint log is not open")
        self._write_line(outcome.to_record())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write_line(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def __enter__(self) -> "CheckpointLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
