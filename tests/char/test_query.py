"""Query layer: interpolation math, provenance, and tolerances.

The math tests run on synthetic stores (records appended directly with
known values), so linear/log-linear data must interpolate exactly.
The tolerance test is the acceptance check: interpolated answers at
held-out midpoints agree with direct simulation within the documented
bounds (DESIGN.md, "Characterization store")."""

from __future__ import annotations

import math

import pytest

from repro.char import (
    CharGrid,
    CharQueryError,
    CharSpec,
    CharStore,
    build_grid,
    entry_fingerprint,
    evaluate_metric,
    metric_reader,
    stored_value,
)


def _fill(store, spec, value_fn):
    """Append records for every entry with value_fn(point, metric)."""
    records = []
    for entry in spec.entries():
        fp = entry_fingerprint(entry.point, entry.metric)
        records.append(
            CharStore.entry_record(
                entry, fp, value=value_fn(entry.point, entry.metric)
            )
        )
    store.append(records)


def _synthetic_grid(tmp_path, spec, value_fn):
    store = CharStore(tmp_path)
    _fill(store, spec, value_fn)
    return CharGrid.from_store(store, spec)


def _vdd_spec(metrics=("drnm",), vdds=(0.6, 0.7, 0.8, 0.9)):
    return CharSpec(name="q", designs=("cmos",), vdds=vdds, metrics=metrics)


class TestInterpolationMath:
    def test_exact_hit(self, tmp_path):
        grid = _synthetic_grid(tmp_path, _vdd_spec(), lambda p, m: 2.0 * p.vdd)
        answer = grid.query("drnm", design="cmos", vdd=0.7)
        assert answer.method == "exact"
        assert answer.value == pytest.approx(1.4)
        assert answer.nearest["coords"]["vdd"] == 0.7
        assert answer.nearest["distance"] == 0.0

    def test_linear_data_interpolates_exactly(self, tmp_path):
        grid = _synthetic_grid(tmp_path, _vdd_spec(), lambda p, m: 2.0 * p.vdd)
        for method in ("linear", "cubic", "auto"):
            answer = grid.query("drnm", design="cmos", vdd=0.65, method=method)
            assert answer.value == pytest.approx(1.3, rel=1e-12)

    def test_log_linear_data_interpolates_exactly_in_log_space(self, tmp_path):
        # hold_power is a log-transform metric: exp-linear data must be
        # recovered exactly by log-space interpolation.
        grid = _synthetic_grid(
            tmp_path, _vdd_spec(metrics=("hold_power",)),
            lambda p, m: 10.0 ** (-12.0 + 5.0 * p.vdd),
        )
        answer = grid.query("hold_power", design="cmos", vdd=0.75, method="linear")
        assert answer.value == pytest.approx(10.0 ** (-12.0 + 5.0 * 0.75), rel=1e-9)
        assert "log10" in " ".join(answer.notes)

    def test_bilinear_over_beta_and_vdd(self, tmp_path):
        spec = CharSpec(
            name="q2", designs=("cmos",), vdds=(0.6, 0.8),
            metrics=("drnm",), betas=(1.0, 2.0),
        )
        grid = _synthetic_grid(
            tmp_path, spec, lambda p, m: p.vdd + 10.0 * p.beta
        )
        answer = grid.query("drnm", design="cmos", vdd=0.7, beta=1.25)
        assert answer.method == "linear"
        assert answer.value == pytest.approx(0.7 + 12.5, rel=1e-12)

    def test_nearest_method_and_provenance(self, tmp_path):
        grid = _synthetic_grid(tmp_path, _vdd_spec(), lambda p, m: 2.0 * p.vdd)
        answer = grid.query("drnm", design="cmos", vdd=0.68, method="nearest")
        assert answer.method == "nearest"
        assert answer.nearest["coords"]["vdd"] == 0.7
        assert answer.value == pytest.approx(1.4)
        assert answer.nearest["fp"] == entry_fingerprint(
            [p for p in _vdd_spec().points() if p.vdd == 0.7][0], "drnm"
        )

    def test_log_metric_with_infinite_neighbour_degrades_to_nearest(self, tmp_path):
        def value_fn(point, metric):
            return math.inf if point.vdd == 0.6 else 1e-9 * point.vdd

        grid = _synthetic_grid(
            tmp_path, _vdd_spec(metrics=("wl_crit",)), value_fn
        )
        answer = grid.query("wl_crit", design="cmos", vdd=0.65)
        assert answer.method == "nearest"
        assert any("nearest" in n for n in answer.notes)
        # Beyond the infinite cell the axis interpolates normally again.
        assert grid.query("wl_crit", design="cmos", vdd=0.75).method in (
            "linear", "cubic",
        )

    def test_out_of_range_raises_instead_of_extrapolating(self, tmp_path):
        grid = _synthetic_grid(tmp_path, _vdd_spec(), lambda p, m: p.vdd)
        with pytest.raises(CharQueryError, match="outside"):
            grid.query("drnm", design="cmos", vdd=0.4)

    def test_missing_entry_raises(self, tmp_path):
        spec = _vdd_spec()
        store = CharStore(tmp_path)
        records = [
            CharStore.entry_record(
                e, entry_fingerprint(e.point, e.metric), value=1.0
            )
            for e in spec.entries() if e.point.vdd != 0.7  # drop one point
        ]
        store.append(records)
        grid = CharGrid.from_store(store, spec)
        with pytest.raises(CharQueryError, match="incomplete"):
            grid.query("drnm", design="cmos", vdd=0.68)

    def test_unknown_axis_values_raise(self, tmp_path):
        grid = _synthetic_grid(tmp_path, _vdd_spec(), lambda p, m: p.vdd)
        with pytest.raises(CharQueryError, match="design"):
            grid.query("drnm", design="proposed", vdd=0.7)
        with pytest.raises(CharQueryError, match="metric"):
            grid.query("snm", design="cmos", vdd=0.7)
        with pytest.raises(CharQueryError, match="beta"):
            grid.query("drnm", design="cmos", vdd=0.7, beta=1.5)

    def test_cubic_requires_four_vdd_points(self, tmp_path):
        grid = _synthetic_grid(
            tmp_path, _vdd_spec(vdds=(0.6, 0.8)), lambda p, m: p.vdd
        )
        with pytest.raises(CharQueryError, match="cubic"):
            grid.query("drnm", design="cmos", vdd=0.7, method="cubic")

    def test_answer_json_shape(self, tmp_path):
        grid = _synthetic_grid(tmp_path, _vdd_spec(), lambda p, m: p.vdd)
        payload = grid.query("drnm", design="cmos", vdd=0.65).to_json()
        assert set(payload) == {
            "metric", "unit", "value", "coords", "method", "nearest", "notes",
        }
        assert set(payload["nearest"]) == {"coords", "value", "fp", "distance"}


class TestToleranceAgainstSimulation:
    """The documented interpolation tolerances, enforced.

    DESIGN.md documents: at interior held-out midpoints of a 0.1 V
    grid, DRNM within 1 % (linear), hold power within 2 %
    (log-linear), read delay within 5 % (cubic)."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        spec = CharSpec(
            name="tol", designs=("cmos",), vdds=(0.5, 0.6, 0.7, 0.8, 0.9),
            metrics=("drnm", "hold_power", "read_delay"),
        )
        store = CharStore(tmp_path_factory.mktemp("tol_store"))
        build_grid(spec, store)
        return CharGrid.from_store(store, spec), spec

    @pytest.mark.parametrize("vdd", (0.65, 0.75))
    def test_drnm_linear_within_1_percent(self, built, vdd):
        grid, _ = built
        direct = evaluate_metric("drnm", "cmos", vdd)
        answer = grid.query("drnm", design="cmos", vdd=vdd, method="linear")
        assert answer.value == pytest.approx(direct, rel=0.01)

    @pytest.mark.parametrize("vdd", (0.65, 0.75))
    def test_hold_power_log_linear_within_2_percent(self, built, vdd):
        grid, _ = built
        direct = evaluate_metric("hold_power", "cmos", vdd)
        answer = grid.query("hold_power", design="cmos", vdd=vdd, method="linear")
        assert answer.value == pytest.approx(direct, rel=0.02)

    @pytest.mark.parametrize("vdd", (0.65, 0.75))
    def test_read_delay_cubic_within_5_percent(self, built, vdd):
        grid, _ = built
        direct = evaluate_metric("read_delay", "cmos", vdd)
        answer = grid.query("read_delay", design="cmos", vdd=vdd, method="cubic")
        assert answer.value == pytest.approx(direct, rel=0.05)


class TestServing:
    def test_stored_value_hit_and_miss(self, tmp_path):
        spec = _vdd_spec()
        store = CharStore(tmp_path)
        _fill(store, spec, lambda p, m: 2.0 * p.vdd)
        assert stored_value(store, "drnm", "cmos", 0.7) == pytest.approx(1.4)
        assert stored_value(store, "drnm", "cmos", 0.123) is None
        assert stored_value(store, "drnm", "proposed", 0.7) is None

    def test_metric_reader_simulates_misses_with_evaluate_metric(
        self, tmp_path, monkeypatch
    ):
        from repro.char import metrics

        spec = _vdd_spec()
        store = CharStore(tmp_path)
        _fill(store, spec, lambda p, m: 2.0 * p.vdd)
        calls = []

        def recording(metric, design, vdd, beta=None, corner="tt"):
            calls.append((metric, design, vdd, beta, corner))
            return 999.0

        monkeypatch.setattr(metrics, "evaluate_metric", recording)
        read = metric_reader(store)
        assert read("drnm", "cmos", 0.7) == pytest.approx(1.4)
        assert calls == []
        assert read("drnm", "cmos", 0.123, beta=1.1) == 999.0
        assert calls == [("drnm", "cmos", 0.123, 1.1, "tt")]
        # Without a store every point simulates.
        read_none = metric_reader(None)
        assert read_none("drnm", "inward_p", 0.7, beta=0.8, corner="ss") == 999.0
        assert calls[-1] == ("drnm", "inward_p", 0.7, 0.8, "ss")
