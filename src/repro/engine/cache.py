"""Shared on-disk cache of quantized TFET current tables.

:mod:`repro.devices.library` memoizes device tables in-process, which
is enough for a serial run but means every worker process of a batch
run pays the physics step (sampling the calibrated model onto a
141x141 grid) again for every thickness scale it encounters.  This
cache persists the *sampled current grid*, keyed by the quantized
oxide-thickness scale, so across a whole worker pool (and across runs)
each unique scale is sampled exactly once.

Only the raw samples are stored; the interpolant and the charge model
are rebuilt on load (deterministic numpy work), so a cache hit is
bit-identical to a fresh build.  Per 141x141 table, a load takes about
1.5 ms against about 2.5 ms of sampling, and the coefficient bake that
follows either one about 7.5 ms (2-vCPU x86 VM), so a hit saves about
a tenth of a build.  Writes go through a temp file and
``os.replace`` so concurrent workers racing on the same scale can only
ever observe a complete file; the race loser overwrites with identical
bytes.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.telemetry import core as telemetry

__all__ = ["DeviceTableCache"]

_FORMAT = "repro.table-cache/v1"


class DeviceTableCache:
    """Directory-backed store of sampled current tables.

    Keys are ``(oxide_scale, table_points)`` pairs; the scale is assumed
    already quantized (see :func:`repro.devices.variation.quantize_scale`).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, oxide_scale: float, table_points: int) -> Path:
        return self.directory / f"tfet_s{oxide_scale:.6f}_p{table_points}.npz"

    def load(self, oxide_scale: float, table_points: int):
        """The stored payload dict, or ``None`` on a miss.

        Payload keys: ``current`` (2-D array), ``vgs`` / ``vds``
        (start, stop, count), ``shape_voltage``.
        """
        path = self._path(oxide_scale, table_points)
        tel = telemetry.active()
        try:
            with np.load(path) as data:
                if str(data["format"]) != _FORMAT:
                    raise ValueError(f"unknown cache format in {path}")
                payload = {
                    "current": data["current"],
                    "vgs": data["vgs"],
                    "vds": data["vds"],
                    "shape_voltage": float(data["shape_voltage"]),
                }
        except FileNotFoundError:
            self.misses += 1
            if tel is not None:
                tel.count("devcache.misses")
            return None
        except (ValueError, KeyError, OSError):
            # A corrupt entry is a miss; the rebuild will overwrite it.
            self.misses += 1
            if tel is not None:
                tel.count("devcache.corrupt")
            return None
        self.hits += 1
        if tel is not None:
            tel.count("devcache.hits")
        return payload

    def store(
        self,
        oxide_scale: float,
        table_points: int,
        current: np.ndarray,
        vgs: tuple[float, float, int],
        vds: tuple[float, float, int],
        shape_voltage: float,
    ) -> Path:
        """Atomically persist one sampled table; returns the entry path."""
        path = self._path(oxide_scale, table_points)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    format=_FORMAT,
                    current=np.asarray(current, dtype=float),
                    vgs=np.asarray(vgs, dtype=float),
                    vds=np.asarray(vds, dtype=float),
                    shape_voltage=float(shape_voltage),
                )
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        tel = telemetry.active()
        if tel is not None:
            tel.count("devcache.stores")
        return path

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}
