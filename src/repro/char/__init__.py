"""Incremental design-space characterization (``repro.char``).

This subsystem turns the paper's scattered per-figure simulation loops
into one reusable asset: a **content-addressed store of characterized
grid points** plus a **query layer** over it.

* :mod:`repro.char.spec` — declarative grid specs (designs x V_DD x
  corners x beta, times a metric list) compiled into stable-ordered
  entries.
* :mod:`repro.char.fingerprint` — the content address of an entry:
  point + metric procedure + solver defaults + behavioral device
  digest.  Change the solver or a device table and exactly the
  affected entries go stale.
* :mod:`repro.char.store` — the on-disk store: append-only JSONL index
  keyed by fingerprint, plus compiled npz grid payloads per spec.
* :mod:`repro.char.build` — incremental, resumable builds through
  :mod:`repro.engine` (checkpointed batches, parallel workers,
  ``--verify`` sampling).
* :mod:`repro.char.metrics` — the metric registry, and
  :class:`MetricPoint` / :func:`metric_gen`, the one cell measurement.
* :mod:`repro.char.query` — interpolated point queries with
  nearest-simulated-point provenance, and :func:`evaluate_points`, the
  experiments' store-first, batched point driver.

Quick start::

    from repro.char import BUILTIN_SPECS, CharGrid, CharStore, build_grid

    store = CharStore("results/char")
    build_grid(BUILTIN_SPECS["nominal"], store, jobs=4)
    grid = CharGrid.from_store(store, BUILTIN_SPECS["nominal"])
    answer = grid.query("drnm", design="proposed", vdd=0.65)
"""

from repro.char.build import BuildReport, build_grid, plan_build
from repro.char.designs import DESIGNS, CharDesign
from repro.char.fingerprint import (
    clear_fingerprint_cache,
    device_fingerprint,
    entry_fingerprint,
    solver_fingerprint,
)
from repro.char.metrics import (
    METRICS,
    MetricDef,
    MetricPoint,
    evaluate_metric,
    metric_gen,
)
from repro.char.query import (
    CharAnswer,
    CharGrid,
    CharQueryError,
    as_store,
    evaluate_points,
    stored_value,
)
from repro.char.spec import (
    BUILTIN_SPECS,
    CharEntry,
    CharPoint,
    CharSpec,
    load_spec,
    resolve_spec,
)
from repro.char.store import DEFAULT_STORE_DIR, CharStore, StoreStatus, spec_digest

__all__ = [
    "BUILTIN_SPECS",
    "BuildReport",
    "CharAnswer",
    "CharDesign",
    "CharEntry",
    "CharGrid",
    "CharPoint",
    "CharQueryError",
    "CharSpec",
    "CharStore",
    "DEFAULT_STORE_DIR",
    "DESIGNS",
    "METRICS",
    "MetricDef",
    "MetricPoint",
    "StoreStatus",
    "as_store",
    "build_grid",
    "clear_fingerprint_cache",
    "device_fingerprint",
    "entry_fingerprint",
    "evaluate_metric",
    "evaluate_points",
    "load_spec",
    "metric_gen",
    "plan_build",
    "resolve_spec",
    "solver_fingerprint",
    "spec_digest",
    "stored_value",
]
