"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer (listed in
:data:`TARGETS`) in place: the function or method is replaced in its
defining module or class and in every loaded ``repro`` module that
imported it by name.  Each call records a span (name, start, end,
parent span, trace id) on a per-thread stack; a span's self time is its
duration minus the time its child spans cover.  Spans stay in memory
and are written once, in the ``repro.obs.trace/v1`` schema that
``repro trace summary`` reads.

Nothing here runs during the untraced end-to-end runs.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACE_SCHEMA = "repro.obs.trace/v1"

LAYER_OF = {
    "devices.eval": "devices",
    "devices.table_build": "devices",
    "mna.assemble": "mna",
    "mna.residual": "mna",
    "sparse.assemble": "sparse",
    "sparse.residual": "sparse",
    "sparse.factor": "sparse",
    "sparse.solve": "sparse",
    "lu.factor": "lu",
    "lu.solve": "lu",
    "newton.solve": "newton",
    "dcop.solve_dc": "newton",
    "transient.simulate": "transient",
    "batch.run": "batch",
    "sram.testbench": "sram",
    "compiler.compile": "compiler",
    "compiler.measure": "compiler",
    "analysis.metric": "analysis",
    "analysis.mc_task": "analysis",
    "engine.run_tasks": "engine",
    "engine.checkpoint": "engine",
    "char.task": "char",
    "char.query": "char",
    "char.append": "char",
    "char.compile": "char",
    "serve.answer": "serve",
    "serve.submit": "serve",
    "serve.reload": "serve",
    "bench.op": "op",
}
"""Span name -> layer.  Every layer's self time is the sum of its spans'."""


def _points(args, kwargs, result):
    return {"points": int(np.size(args[-2]))}


def _unknowns(args, kwargs, result):
    return {"unknowns": int(result.unknown_count)}


TARGETS = [
    # (module, attribute path, span name, fields hook)
    ("repro.devices.tfet", "TfetTableModel.evaluate_density", "devices.eval", _points),
    ("repro.devices.mosfet", "MosfetModel.evaluate_density", "devices.eval", _points),
    ("repro.circuit.batch", "_TableRegistry.evaluate", "devices.eval", _points),
    ("repro.devices.physics.tablegen", "sample_current_grid", "devices.table_build", None),
    ("repro.circuit.mna", "MnaSystem.assemble", "mna.assemble", None),
    ("repro.circuit.mna", "MnaSystem.assemble_residual", "mna.residual", None),
    ("repro.circuit.sparse", "SparseMnaSystem.assemble", "sparse.assemble", None),
    ("repro.circuit.sparse", "SparseMnaSystem.assemble_residual", "sparse.residual", None),
    ("repro.circuit.sparse", "SparseFactorization.__init__", "sparse.factor", None),
    ("repro.circuit.sparse", "SparseFactorization.solve", "sparse.solve", None),
    ("repro.circuit.dcop", "_Factorization.__init__", "lu.factor", None),
    ("repro.circuit.dcop", "_Factorization.solve", "lu.solve", None),
    ("repro.circuit.dcop", "newton_solve", "newton.solve", None),
    ("repro.circuit.dcop", "solve_dc", "dcop.solve_dc", None),
    ("repro.circuit.transient", "simulate_transient", "transient.simulate", None),
    ("repro.circuit.batch", "run_generators", "batch.run", None),
    ("repro.sram.base", "SixTCellBase.hold_testbench", "sram.testbench", None),
    ("repro.sram.base", "SixTCellBase.read_testbench", "sram.testbench", None),
    ("repro.sram.base", "SixTCellBase.write_testbench", "sram.testbench", None),
    ("repro.sram.tfet_asym6t", "AsymTfet6TCell.write_testbench", "sram.testbench", None),
    ("repro.sram.tfet7t", "Tfet7TCell.hold_testbench", "sram.testbench", None),
    ("repro.sram.tfet7t", "Tfet7TCell.read_testbench", "sram.testbench", None),
    ("repro.sram.tfet7t", "Tfet7TCell.write_testbench", "sram.testbench", None),
    ("repro.sram.compiler.column", "compile_array", "compiler.compile", _unknowns),
    ("repro.analysis.power", "hold_power", "analysis.metric", None),
    ("repro.analysis.stability", "dynamic_read_noise_margin", "analysis.metric", None),
    ("repro.analysis.stability", "critical_wordline_pulse", "analysis.metric", None),
    ("repro.analysis.timing", "read_delay", "analysis.metric", None),
    ("repro.analysis.timing", "write_delay", "analysis.metric", None),
    ("repro.analysis.energy", "read_energy", "analysis.metric", None),
    ("repro.analysis.energy", "write_energy", "analysis.metric", None),
    ("repro.sram.compiler.measure", "measure_array", "compiler.measure", None),
    ("repro.engine.mc", "evaluate_mc_sample", "analysis.mc_task", None),
    ("repro.engine.mc", "evaluate_mc_chunk", "analysis.mc_task", None),
    ("repro.engine.scheduler", "run_tasks", "engine.run_tasks", None),
    ("repro.engine.checkpoint", "CheckpointLog.append", "engine.checkpoint", None),
    ("repro.char.build", "evaluate_entry", "char.task", None),
    ("repro.char.query", "CharGrid.query", "char.query", None),
    ("repro.char.store", "CharStore.append", "char.append", None),
    ("repro.char.store", "CharStore.compile_grid", "char.compile", None),
    ("repro.serve.registry", "GridRegistry.answer", "serve.answer", None),
    ("repro.serve.registry", "GridRegistry.maybe_reload", "serve.reload", None),
    ("repro.serve.backfill", "BackfillQueue.submit", "serve.submit", None),
]


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        """[id, parent id, name, t0, t1, trace id, self seconds, fields]"""
        self.self_s: dict[str, float] = defaultdict(float)
        """Self seconds per span name (kept also when spans are not)."""
        self.trace_id = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]  # id, child seconds
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer._record(frame[0], stack[-1][0] if stack else 0, name,
                               t0, t1, dur - frame[1],
                               hook(args, kwargs, result) if hook and result is not None
                               else None)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record(self, span_id, parent, name, t0, t1, self_s, fields) -> None:
        trace_id = self.trace_id if threading.current_thread() is threading.main_thread() \
            else f"{self.trace_id}:{threading.current_thread().name}"
        with self._lock:
            self.self_s[name] += self_s
            if self.keep_spans:
                self.spans.append([span_id, parent, name, t0, t1, trace_id, self_s, fields])

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`, importing its module."""
        originals = []
        for module_name, path, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            # Inherited methods are read from the base, and wrapped on
            # the subclass under the subclass's span name.
            original = (vars(owner).get(attr, getattr(owner, attr))
                        if isinstance(owner, type) else getattr(owner, attr))
            originals.append((owner, attr, original, name, hook))
        for owner, attr, original, name, hook in originals:
            wrapped = self.wrap(original, name, hook)
            self._set(owner, attr, original, wrapped)
            if not isinstance(owner, type):
                for mod in list(sys.modules.values()):
                    if (mod is not owner and getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, attr, None) is original):
                        self._set(mod, attr, original, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, the benchmark's own op spans excluded."""
        out: dict[str, float] = defaultdict(float)
        for name, self_s in self.self_s.items():
            if LAYER_OF[name] != "op":
                out[LAYER_OF[name]] += self_s
        return dict(out)


def write_trace(path: str | Path, spans) -> Path:
    """Write spans as a merged ``repro.obs.trace/v1`` trace file; each
    span's fields carry its layer, trace id and raw self seconds."""
    to_unix = time.time() - time.perf_counter()
    records = []
    for span_id, parent, name, t0, t1, trace_id, self_s, fields in spans:
        f = {"layer": LAYER_OF.get(name, "op"), "trace_id": trace_id, "self_s": self_s}
        if fields:
            f.update(fields)
        records.append({"id": f"{span_id:x}", "parent": f"{parent:x}" if parent else "",
                        "name": name, "t0_unix": t0 + to_unix, "dur_s": t1 - t0, "fields": f})
    records.sort(key=lambda r: (r["t0_unix"], r["id"]))
    payload = {"schema": TRACE_SCHEMA, "created_unix": time.time(),
               "trace_ids": sorted({r["fields"]["trace_id"] for r in records}),
               "sources": ["perfbench"], "spans": records, "events": []}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path
