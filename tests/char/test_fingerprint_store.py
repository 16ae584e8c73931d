"""Fingerprint granularity and store mechanics.

The invalidation contract under test: a fingerprint moves exactly when
something the stored value depends on moves — and only for the entries
that depend on it (a TFET device change must not invalidate CMOS
entries)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.char import (
    CharEntry,
    CharPoint,
    CharSpec,
    CharStore,
    clear_fingerprint_cache,
    entry_fingerprint,
)
from repro.char.metrics import METRICS


@pytest.fixture(autouse=True)
def _fresh_fingerprints():
    clear_fingerprint_cache()
    yield
    clear_fingerprint_cache()


def _point(**overrides):
    base = dict(design="cmos", corner="tt", vdd=0.8, beta=None)
    base.update(overrides)
    return CharPoint(**base)


class TestFingerprint:
    def test_deterministic(self):
        assert entry_fingerprint(_point(), "drnm") == entry_fingerprint(
            _point(), "drnm"
        )

    def test_distinct_across_coordinates(self):
        fps = {
            entry_fingerprint(_point(), "drnm"),
            entry_fingerprint(_point(), "hold_power"),
            entry_fingerprint(_point(vdd=0.7), "drnm"),
            entry_fingerprint(_point(beta=1.5), "drnm"),
            entry_fingerprint(_point(design="proposed"), "drnm"),
            entry_fingerprint(_point(design="proposed", corner="ss"), "drnm"),
        }
        assert len(fps) == 6

    def test_metric_version_bump_invalidates(self, monkeypatch):
        before = entry_fingerprint(_point(), "drnm")
        monkeypatch.setitem(
            METRICS, "drnm", replace(METRICS["drnm"], version=2)
        )
        assert entry_fingerprint(_point(), "drnm") != before

    def test_solver_change_invalidates(self, monkeypatch):
        from repro.circuit import dcop

        before = entry_fingerprint(_point(), "drnm")
        original = dcop.SolverOptions
        monkeypatch.setattr(
            dcop, "SolverOptions", lambda: original(max_iterations=77)
        )
        clear_fingerprint_cache()
        assert entry_fingerprint(_point(), "drnm") != before

    def test_tfet_device_change_spares_cmos_entries(self, monkeypatch):
        from repro.devices import library

        cmos_before = entry_fingerprint(_point(), "drnm")
        tfet_before = entry_fingerprint(_point(design="proposed"), "drnm")

        class _Scaled:
            def __init__(self, inner):
                self._inner = inner

            def current_density(self, vgs, vds):
                return 1.01 * self._inner.current_density(vgs, vds)

        original = library.tfet_device
        monkeypatch.setattr(library, "tfet_device", lambda: _Scaled(original()))
        clear_fingerprint_cache()
        assert entry_fingerprint(_point(design="proposed"), "drnm") != tfet_before
        assert entry_fingerprint(_point(), "drnm") == cmos_before


def _record(entry, fp, value=1.0, status="ok"):
    return CharStore.entry_record(entry, fp, value=value, status=status)


def _tiny_spec():
    return CharSpec(
        name="tiny", designs=("cmos",), vdds=(0.6, 0.8),
        metrics=("hold_power", "drnm"),
    )


class TestStore:
    def test_append_and_reload(self, tmp_path):
        store = CharStore(tmp_path)
        spec = _tiny_spec()
        entries = spec.entries()
        fps = [entry_fingerprint(e.point, e.metric) for e in entries]
        store.append([_record(e, fp, value=i) for i, (e, fp) in
                      enumerate(zip(entries, fps))])
        reloaded = CharStore(tmp_path).load_index()
        assert set(reloaded) == set(fps)
        assert store.value(entries[0].point, entries[0].metric) == 0.0

    def test_last_wins_on_duplicate_fingerprint(self, tmp_path):
        store = CharStore(tmp_path)
        entry = _tiny_spec().entries()[0]
        fp = entry_fingerprint(entry.point, entry.metric)
        store.append([_record(entry, fp, value=1.0)])
        store.append([_record(entry, fp, value=2.0)])
        assert store.load_index()[fp]["value"] == 2.0

    def test_failed_entries_do_not_serve_values(self, tmp_path):
        store = CharStore(tmp_path)
        entry = _tiny_spec().entries()[0]
        fp = entry_fingerprint(entry.point, entry.metric)
        store.append([_record(entry, fp, value=None, status="failed")])
        assert store.value(entry.point, entry.metric) is None

    def test_non_finite_value_is_strict_json(self, tmp_path):
        """An unwritable cell's ``inf`` is written as ``{"__float__": ...}``,
        so every index line parses without the ``Infinity`` literal."""
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        store = CharStore(tmp_path)
        spec = CharSpec(name="inf", designs=("inward_n",), vdds=(0.8,), metrics=("wl_crit",))
        entry = spec.entries()[0]
        store.append([_record(entry, entry_fingerprint(entry.point, entry.metric),
                              value=float("inf"))])
        lines = store.index_path.read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert records[1]["value"] == {"__float__": "Infinity"}
        assert CharStore(tmp_path).value(entry.point, "wl_crit") == float("inf")

    def test_bare_infinity_of_older_indexes_still_reads(self, tmp_path):
        store = CharStore(tmp_path)
        spec = CharSpec(name="inf", designs=("inward_n",), vdds=(0.8,), metrics=("wl_crit",))
        entry = spec.entries()[0]
        store.append([_record(entry, entry_fingerprint(entry.point, entry.metric))])
        header, line = store.index_path.read_text().splitlines()
        older = line.replace('"value": 1.0', '"value": Infinity')
        assert older != line
        store.index_path.write_text(f"{header}\n{older}\n")
        assert CharStore(tmp_path).value(entry.point, "wl_crit") == float("inf")

    def test_torn_tail_tolerated(self, tmp_path):
        store = CharStore(tmp_path)
        entries = _tiny_spec().entries()
        fps = [entry_fingerprint(e.point, e.metric) for e in entries]
        store.append([_record(e, fp) for e, fp in zip(entries[:2], fps[:2])])
        with store.index_path.open("a") as handle:
            handle.write('{"fp": "torn')  # kill mid-append
        assert set(CharStore(tmp_path).load_index()) == set(fps[:2])

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "index.jsonl"
        path.write_text(json.dumps({"schema": "something.else/v9"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            CharStore(tmp_path).load_index()

    def test_infinity_values_round_trip(self, tmp_path):
        # inf is data (an unwritable cell's wl_crit), and the index uses
        # the Python JSON dialect that keeps it a float.
        store = CharStore(tmp_path)
        spec = CharSpec(name="t", designs=("cmos",), vdds=(0.8,),
                        metrics=("wl_crit",))
        entry = spec.entries()[0]
        fp = entry_fingerprint(entry.point, entry.metric)
        store.append([_record(entry, fp, value=float("inf"))])
        assert CharStore(tmp_path).value(entry.point, entry.metric) == float("inf")

    def test_status_counts_present_failed_and_stale(self, tmp_path):
        store = CharStore(tmp_path)
        spec = _tiny_spec()
        entries = spec.entries()
        fps = [entry_fingerprint(e.point, e.metric) for e in entries]
        records = [
            _record(entries[0], fps[0], value=1.0),
            _record(entries[1], fps[1], value=None, status="failed"),
            # Same coordinates as entries[2] but a superseded fingerprint:
            # an entry computed under an older solver/device configuration.
            _record(entries[2], "0" * 64, value=3.0),
        ]
        store.append(records)
        status = store.status(spec)
        assert (status.total, status.present, status.failed, status.stale) == (
            4, 1, 1, 1,
        )
        assert status.missing == 3
        assert "stale" in status.summary()

    def test_payload_staleness_checks_every_entry(self, tmp_path, monkeypatch):
        # Regression: fingerprints are per-technology, so a staleness
        # check that samples only the first entry misses a TFET
        # recalibration on a mixed spec whose first design is CMOS.
        from repro.char.query import CharGrid, CharQueryError, _payload_stale
        from repro.devices import library

        spec = CharSpec(
            name="mixed", designs=("cmos", "proposed"), vdds=(0.8,),
            metrics=("drnm",),
        )
        store = CharStore(tmp_path)
        store.append([
            _record(e, entry_fingerprint(e.point, e.metric), value=0.1)
            for e in spec.entries()
        ])
        path = store.compile_grid(spec)
        assert not _payload_stale(path, spec)

        class _Scaled:
            def __init__(self, inner):
                self._inner = inner

            def current_density(self, vgs, vds):
                return 1.01 * self._inner.current_density(vgs, vds)

        original = library.tfet_device
        monkeypatch.setattr(library, "tfet_device", lambda: _Scaled(original()))
        clear_fingerprint_cache()
        assert _payload_stale(path, spec)
        # from_store recompiles: the CMOS entry still serves, the TFET
        # entry is now uncharacterized instead of silently stale.
        grid = CharGrid.from_store(store, spec)
        assert grid.query("drnm", design="cmos", vdd=0.8).method == "exact"
        with pytest.raises(CharQueryError, match="incomplete"):
            grid.query("drnm", design="proposed", vdd=0.8)

    def test_compile_grid_payload(self, tmp_path):
        import numpy as np

        store = CharStore(tmp_path)
        spec = _tiny_spec()
        entries = spec.entries()
        fps = [entry_fingerprint(e.point, e.metric) for e in entries]
        # Leave the last entry missing.
        store.append([_record(e, fp, value=i) for i, (e, fp) in
                      enumerate(zip(entries[:-1], fps[:-1]))])
        path = store.compile_grid(spec)
        with np.load(path) as data:
            spec_json = json.loads(str(data["spec_json"]))
            assert spec_json == spec.to_json()
            assert data["mask_hold_power"].sum() == 2
            assert data["mask_drnm"].sum() == 1
            assert np.isnan(data["value_drnm"]).sum() == 1
            # Every cell carries its fingerprint even when unfilled.
            assert (data["fp_drnm"] != "").all()
