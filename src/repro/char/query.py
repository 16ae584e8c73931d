"""Querying characterized grids: interpolation with provenance.

Two consumption styles:

* **Exact serving** (:func:`stored_value`, :func:`metric_reader`) —
  experiments ask the store for the exact grid point they would
  otherwise simulate; a hit is a free result, a miss runs
  :func:`~repro.char.metrics.evaluate_metric`, the procedure that
  produced the stored value.  No spec needed: the point's content
  address is the lookup key.
* **Interpolated queries** (:class:`CharGrid`) — a designer asks for a
  metric at an *uncharacterized* operating point
  (``DRNM(vdd=0.45)``); the grid answers by interpolating along the
  numeric axes (V_DD, and beta when the spec swept it) and attaches
  the nearest simulated point as provenance, so every answer can be
  traced back to a real simulation.

Interpolation: multilinear over the numeric axes, upgraded to a
Catmull-Rom cubic along V_DD when four or more supply points are
characterized.  Metrics tagged ``transform="log"`` (power, delay,
energy — they span decades) are interpolated in log10 space; when a
participating sample is non-finite or non-positive (an unwritable
cell's ``inf``), the query degrades to nearest-neighbour and says so
in ``notes`` instead of inventing numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.char.fingerprint import entry_fingerprint
from repro.char.metrics import METRICS
from repro.char.spec import CharPoint, CharSpec
from repro.char.store import CharStore
from repro.telemetry import core as telemetry

__all__ = [
    "CharAnswer",
    "CharGrid",
    "CharQueryError",
    "as_store",
    "metric_reader",
    "stored_value",
]


class CharQueryError(LookupError):
    """The grid cannot answer: axis out of range or entries missing.

    ``reason`` classifies the failure for programmatic consumers (the
    serving daemon routes on it):

    * ``"bad-request"`` — the query itself is invalid (unknown method,
      cubic on an ineligible axis); no amount of characterization helps;
    * ``"off-grid"`` — the metric/design/corner/beta is not on this
      grid's axes (another grid, or a backfill, may hold it);
    * ``"out-of-range"`` — a numeric axis value lies outside the
      characterized range;
    * ``"missing-entry"`` — the bracketing entries exist on the axes
      but have not been characterized yet.
    """

    def __init__(self, message: str, reason: str = "bad-request"):
        super().__init__(message)
        self.reason = reason


# -- exact serving ---------------------------------------------------------


def as_store(store) -> CharStore | None:
    """Coerce ``None`` / path / :class:`CharStore` to a store handle."""
    if store is None or isinstance(store, CharStore):
        return store
    return CharStore(store)


def stored_value(
    store: CharStore,
    metric: str,
    design: str,
    vdd: float,
    beta: float | None = None,
    corner: str = "tt",
) -> float | None:
    """The exact stored value for one grid point, or ``None`` on a miss.

    This is the experiments' thin-read path: a pre-built store turns a
    figure regeneration into index lookups.
    """
    point = CharPoint(design=design, corner=corner, vdd=float(vdd), beta=beta)
    value = store.value(point, metric)
    tel = telemetry.active()
    if tel is not None:
        tel.count("char.serve.hits" if value is not None else "char.serve.misses")
    return value


def metric_reader(char_store):
    """A serve-or-simulate reader for the experiments.

    ``read(metric, design, vdd, beta=None, corner="tt")`` returns the
    stored exact value when the store has it, else simulates the point
    with :func:`~repro.char.metrics.evaluate_metric`.  A served value and
    a simulated one therefore come from one measurement procedure.  With
    ``char_store=None`` every call simulates.
    """
    from repro.char import metrics

    store = as_store(char_store)

    def read(metric, design, vdd, beta=None, corner="tt"):
        if store is not None:
            value = stored_value(store, metric, design, vdd, beta=beta, corner=corner)
            if value is not None:
                return value
        return metrics.evaluate_metric(metric, design, vdd, beta=beta, corner=corner)

    return read


# -- interpolated queries --------------------------------------------------


@dataclass(frozen=True)
class CharAnswer:
    """One query answer with its simulation provenance."""

    metric: str
    unit: str
    value: float
    coords: dict
    method: str
    """``exact`` | ``linear`` | ``cubic`` | ``nearest``."""

    nearest: dict
    """The nearest *simulated* point: coords, value, fingerprint, and
    normalized axis distance — every answer names its evidence."""

    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "unit": self.unit,
            "value": self.value,
            "coords": self.coords,
            "method": self.method,
            "nearest": self.nearest,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        near = self.nearest
        lines = [
            f"{self.metric}({_fmt_coords(self.coords)}) = {self.value:.6g} "
            f"{self.unit}  [{self.method}]",
            f"  nearest simulated point: {_fmt_coords(near['coords'])} -> "
            f"{near['value']:.6g} {self.unit} (fp {near['fp'][:12]})",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt_coords(coords: dict) -> str:
    parts = [f"design={coords['design']}", f"vdd={coords['vdd']:g}"]
    if coords.get("beta") is not None:
        parts.append(f"beta={coords['beta']:g}")
    if coords.get("corner", "tt") != "tt":
        parts.append(f"corner={coords['corner']}")
    return ", ".join(parts)


class CharGrid:
    """One spec's characterized grid, loaded for querying.

    ``values[metric]`` is indexed ``[design, corner, beta, vdd]`` over
    the spec axes, with a parallel presence mask (absent entries are
    NaN + mask 0) and per-entry fingerprints for provenance.
    """

    def __init__(self, spec: CharSpec, values, mask, fps):
        self.spec = spec
        self.values = values
        self.mask = mask
        self.fps = fps

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_store(store: CharStore | str | Path, spec: CharSpec) -> "CharGrid":
        """Load from the compiled npz payload, assembling it if absent
        or stale (fingerprint set changed since it was compiled).

        Tolerates a concurrent ``build_grid`` writer: when a payload
        compiled from a just-read index immediately looks stale again
        (the writer appended between the read and the load), the index
        is re-read and the payload recompiled a bounded number of
        times, then the latest snapshot is served — reads never error
        out just because a build is in flight.
        """
        store = as_store(store)
        path = store.grid_path(spec)
        for _ in range(3):
            if path.exists() and not _payload_stale(path, spec):
                break
            store.refresh()
            store.compile_grid(spec)
        return CharGrid.from_npz(path)

    @staticmethod
    def from_npz(path: str | Path) -> "CharGrid":
        with np.load(path) as data:
            spec = CharSpec.from_json(json.loads(str(data["spec_json"])))
            values = {m: np.array(data[f"value_{m}"]) for m in spec.metrics}
            mask = {m: np.array(data[f"mask_{m}"]) for m in spec.metrics}
            fps = {m: np.array(data[f"fp_{m}"]) for m in spec.metrics}
        return CharGrid(spec, values, mask, fps)

    # -- queries -----------------------------------------------------------

    def query(
        self,
        metric: str,
        design: str,
        vdd: float,
        beta: float | None = None,
        corner: str = "tt",
        method: str = "auto",
    ) -> CharAnswer:
        """Answer a point query; see the module docstring.

        ``method``: ``auto`` (cubic along V_DD when eligible, else
        multilinear), ``linear``, ``cubic``, or ``nearest``.
        """
        if metric not in self.spec.metrics:
            raise CharQueryError(
                f"metric {metric!r} is not in spec {self.spec.name!r} "
                f"(has: {', '.join(self.spec.metrics)})",
                reason="off-grid",
            )
        if method not in ("auto", "linear", "cubic", "nearest"):
            raise CharQueryError(f"unknown method {method!r}")
        d_idx = self._axis_index("design", design, self.spec.designs)
        c_idx = self._axis_index("corner", corner, self.spec.corners)
        b_idx, b_frac, beta_axis = self._numeric_axis(
            "beta", beta, self.spec.betas
        )
        v_idx, v_frac, vdd_axis = self._numeric_axis("vdd", vdd, self.spec.vdds)

        metric_def = METRICS[metric]
        plane = self.values[metric][d_idx, c_idx]
        plane_mask = self.mask[metric][d_idx, c_idx]
        plane_fps = self.fps[metric][d_idx, c_idx]
        coords = {"design": design, "corner": corner, "beta": beta, "vdd": float(vdd)}

        # Collect the multilinear corner set (1, 2, or 4 samples).
        corner_locs = [
            (bi, vi)
            for bi in {b_idx, b_idx + (1 if b_frac > 0.0 else 0)}
            for vi in {v_idx, v_idx + (1 if v_frac > 0.0 else 0)}
        ]
        for bi, vi in corner_locs:
            if not plane_mask[bi, vi]:
                raise CharQueryError(
                    f"grid incomplete: entry ({design}, corner={corner}, "
                    f"beta={self.spec.betas[bi]}, vdd={self.spec.vdds[vi]:g}) "
                    f"for {metric!r} has not been characterized — run "
                    f"`repro char build` first",
                    reason="missing-entry",
                )

        nearest = self._nearest(
            plane, plane_fps, design, corner, b_idx, b_frac, v_idx, v_frac
        )
        notes: list[str] = []
        exact = b_frac == 0.0 and v_frac == 0.0
        if exact:
            value = float(plane[b_idx, v_idx])
            return CharAnswer(
                metric=metric, unit=metric_def.unit, value=value, coords=coords,
                method="exact", nearest=nearest,
            )
        if method == "nearest":
            return CharAnswer(
                metric=metric, unit=metric_def.unit, value=nearest["value"],
                coords=coords, method="nearest", nearest=nearest,
            )

        samples = np.array([[plane[bi, vi] for bi, vi in corner_locs]])
        log_space = metric_def.transform == "log"
        if log_space and not np.all(np.isfinite(samples) & (samples > 0.0)):
            notes.append(
                "log-scale metric with non-finite/non-positive neighbours; "
                "degraded to nearest simulated point"
            )
            return CharAnswer(
                metric=metric, unit=metric_def.unit, value=nearest["value"],
                coords=coords, method="nearest", nearest=nearest,
                notes=tuple(notes),
            )
        if not np.all(np.isfinite(samples)):
            notes.append(
                "non-finite neighbours; degraded to nearest simulated point"
            )
            return CharAnswer(
                metric=metric, unit=metric_def.unit, value=nearest["value"],
                coords=coords, method="nearest", nearest=nearest,
                notes=tuple(notes),
            )

        use_cubic = (
            method in ("auto", "cubic")
            and b_frac == 0.0
            and len(vdd_axis) >= 4
        )
        if method == "cubic" and not use_cubic:
            raise CharQueryError(
                "cubic interpolation needs >= 4 characterized V_DD points "
                "and a fixed beta"
            )
        if use_cubic:
            value, how = self._cubic_vdd(
                plane[b_idx], plane_mask[b_idx], vdd_axis, vdd, log_space
            )
        else:
            value = self._multilinear(
                plane, b_idx, b_frac, v_idx, v_frac, log_space
            )
            how = "linear"
        if log_space:
            notes.append("interpolated in log10 space")
        return CharAnswer(
            metric=metric, unit=metric_def.unit, value=value, coords=coords,
            method=how, nearest=nearest, notes=tuple(notes),
        )

    # -- internals ---------------------------------------------------------

    def _axis_index(self, name: str, value, axis) -> int:
        try:
            return axis.index(value)
        except ValueError:
            raise CharQueryError(
                f"{name} {value!r} is not on the grid (axis: "
                f"{', '.join(str(v) for v in axis)})",
                reason="off-grid",
            ) from None

    def _numeric_axis(self, name: str, value, axis) -> tuple[int, float, list]:
        """``(lower index, fraction, numeric axis)`` for one numeric axis.

        ``fraction`` is 0 for an exact hit; otherwise the position
        inside the bracketing cell.  Categorical use of beta
        (``None``) is an exact index like any other value.
        """
        if name == "beta" and (value is None or None in axis):
            if value is not None and value in axis:
                return axis.index(value), 0.0, []
            if value is None:
                return self._axis_index(name, None, axis), 0.0, []
            # Numeric beta requested against a grid that also has None:
            # only exact matches make sense.
            raise CharQueryError(
                f"beta={value:g} is not on the grid (characterized betas: "
                f"{', '.join(str(b) for b in axis)})",
                reason="off-grid",
            )
        numeric = [float(v) for v in axis]
        x = float(value)
        if not numeric[0] <= x <= numeric[-1]:
            raise CharQueryError(
                f"{name}={x:g} is outside the characterized range "
                f"[{numeric[0]:g}, {numeric[-1]:g}] — extend the spec and "
                "rebuild instead of extrapolating",
                reason="out-of-range",
            )
        for i, v in enumerate(numeric):
            if math.isclose(x, v, rel_tol=1e-9, abs_tol=1e-12):
                return i, 0.0, numeric
        hi = next(i for i, v in enumerate(numeric) if v > x)
        lo = hi - 1
        frac = (x - numeric[lo]) / (numeric[hi] - numeric[lo])
        return lo, frac, numeric

    def _nearest(self, plane, plane_fps, design, corner, b_idx, b_frac, v_idx, v_frac):
        bi = b_idx + (1 if b_frac > 0.5 else 0)
        vi = v_idx + (1 if v_frac > 0.5 else 0)
        distance = math.hypot(min(b_frac, 1.0 - b_frac), min(v_frac, 1.0 - v_frac))
        return {
            "coords": {
                "design": design,
                "corner": corner,
                "beta": self.spec.betas[bi],
                "vdd": self.spec.vdds[vi],
            },
            "value": float(plane[bi, vi]),
            "fp": str(plane_fps[bi, vi]),
            "distance": round(distance, 6),
        }

    @staticmethod
    def _transform(values, log_space):
        return np.log10(values) if log_space else values

    @staticmethod
    def _untransform(value, log_space):
        return float(10.0 ** value) if log_space else float(value)

    def _multilinear(self, plane, b_idx, b_frac, v_idx, v_frac, log_space) -> float:
        b1 = b_idx + (1 if b_frac > 0.0 else 0)
        v1 = v_idx + (1 if v_frac > 0.0 else 0)
        f = self._transform(
            np.array(
                [
                    [plane[b_idx, v_idx], plane[b_idx, v1]],
                    [plane[b1, v_idx], plane[b1, v1]],
                ]
            ),
            log_space,
        )
        along_v0 = f[0, 0] * (1 - v_frac) + f[0, 1] * v_frac
        along_v1 = f[1, 0] * (1 - v_frac) + f[1, 1] * v_frac
        return self._untransform(
            along_v0 * (1 - b_frac) + along_v1 * b_frac, log_space
        )

    def _cubic_vdd(self, line, line_mask, vdd_axis, vdd, log_space):
        """``(value, method)``: Catmull-Rom along V_DD, clamped ends.

        Falls back to linear (and says so in the returned method) for a
        segment whose wider 4-point stencil is incomplete, so one
        missing or infinite entry never blocks the rest of the axis.
        """
        x = np.asarray(vdd_axis)
        hi = int(np.searchsorted(x, vdd))
        hi = max(1, min(hi, len(x) - 1))
        lo = hi - 1
        t = (vdd - x[lo]) / (x[hi] - x[lo])
        stencil = [i for i in (lo - 1, lo, hi, hi + 1) if 0 <= i < len(x)]
        if not all(line_mask[i] for i in stencil) or not np.all(
            np.isfinite(line[stencil])
        ):
            f = self._transform(np.array([line[lo], line[hi]]), log_space)
            return self._untransform(f[0] * (1 - t) + f[1] * t, log_space), "linear"
        f = self._transform(np.array(line[stencil]), log_space)
        values = dict(zip(stencil, f))
        p1, p2 = values[lo], values[hi]
        # Boundary segments use linearly extrapolated ghost points, so
        # linear data stays exactly linear at the grid edges.
        p0 = values.get(lo - 1, 2.0 * p1 - p2)
        p3 = values.get(hi + 1, 2.0 * p2 - p1)
        # Standard uniform Catmull-Rom.
        t2, t3 = t * t, t * t * t
        value = (
            0.5
            * (
                (2.0 * p1)
                + (-p0 + p2) * t
                + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2
                + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3
            )
        )
        return self._untransform(value, log_space), "cubic"


def _payload_stale(path: Path, spec: CharSpec) -> bool:
    """A compiled payload is stale when its fingerprints no longer match
    the current environment (or it predates entries now in the index).

    Every entry is checked: fingerprints are per-technology and
    per-metric, so sampling a subset would miss, e.g., a TFET
    recalibration on a mixed-technology spec whose sampled entries all
    sit on the CMOS baseline."""
    try:
        grid = CharGrid.from_npz(path)
    except Exception:
        return True
    if grid.spec.to_json() != spec.to_json():
        return True
    axis_of = {
        "design": {v: i for i, v in enumerate(spec.designs)},
        "corner": {v: i for i, v in enumerate(spec.corners)},
        "beta": {v: i for i, v in enumerate(spec.betas)},
        "vdd": {v: i for i, v in enumerate(spec.vdds)},
    }
    for entry in spec.entries():
        fp = entry_fingerprint(entry.point, entry.metric)
        loc = (
            axis_of["design"][entry.point.design],
            axis_of["corner"][entry.point.corner],
            axis_of["beta"][entry.point.beta],
            axis_of["vdd"][entry.point.vdd],
        )
        if str(grid.fps[entry.metric][loc]) != fp:
            return True
    return False
