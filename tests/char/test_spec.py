"""Spec compilation: axes, skips, stable ordering, JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.char import BUILTIN_SPECS, CharPoint, CharSpec, load_spec, resolve_spec


def _spec(**overrides):
    base = dict(
        name="t",
        designs=("cmos", "proposed"),
        vdds=(0.6, 0.8),
        metrics=("hold_power", "drnm"),
    )
    base.update(overrides)
    return CharSpec(**base)


class TestValidation:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            _spec(designs=("cmos", "nope"))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            _spec(metrics=("hold_power", "nope"))

    def test_unknown_corner_rejected(self):
        with pytest.raises(ValueError, match="unknown corner"):
            _spec(corners=("tt", "zz"))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis is empty"):
            _spec(vdds=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _spec(designs=("cmos", "cmos"))

    def test_unsorted_vdds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            _spec(vdds=(0.8, 0.6))

    def test_vdd_range_enforced(self):
        with pytest.raises(ValueError, match="out of"):
            _spec(vdds=(0.6, 2.5))

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            _spec(betas=(0.5, -1.0))

    def test_unsorted_betas_rejected(self):
        # The query layer's bracket search assumes ascending axes.
        with pytest.raises(ValueError, match="betas must be sorted"):
            _spec(betas=(1.5, 0.5))

    def test_leading_none_beta_allowed(self):
        spec = _spec(betas=(None, 0.5, 1.5))
        assert spec.betas == (None, 0.5, 1.5)


class TestCompilation:
    def test_points_skip_corners_for_corner_insensitive_designs(self):
        spec = _spec(corners=("tt", "ff"))
        points = spec.points()
        cmos = [p for p in points if p.design == "cmos"]
        proposed = [p for p in points if p.design == "proposed"]
        assert {p.corner for p in cmos} == {"tt"}
        assert {p.corner for p in proposed} == {"tt", "ff"}

    def test_points_skip_betas_for_fixed_sizing_designs(self):
        spec = _spec(betas=(None, 1.5))
        points = spec.points()
        # cmos sweeps beta; the proposed cell has a topology-fixed sizing
        assert {p.beta for p in points if p.design == "cmos"} == {None, 1.5}
        assert {p.beta for p in points if p.design == "proposed"} == {None}

    @pytest.mark.parametrize("design", ["proposed", "asym", "7t"])
    def test_beta_on_fixed_sizing_design_raises(self, design):
        """The rule the compiler applies above: no silent canonical cell."""
        from repro.char.designs import build_cell
        from repro.char.metrics import evaluate_metric

        with pytest.raises(ValueError, match="fixed topology-defined sizing"):
            build_cell(design, beta=1.5)
        with pytest.raises(ValueError, match="fixed topology-defined sizing"):
            evaluate_metric("hold_power", design, 0.8, beta=1.5)

    def test_entries_skip_undefined_metrics(self):
        spec = _spec(designs=("asym",), metrics=("drnm", "wl_crit"))
        assert {e.metric for e in spec.entries()} == {"drnm"}

    def test_entry_indices_are_contiguous_and_stable(self):
        spec = _spec()
        entries = spec.entries()
        assert [e.index for e in entries] == list(range(len(entries)))
        assert [ (e.point, e.metric) for e in entries ] == [
            (e.point, e.metric) for e in spec.entries()
        ]


class TestSerialization:
    def test_json_round_trip(self):
        spec = _spec(betas=(None, 1.5), corners=("tt", "ss"))
        assert CharSpec.from_json(spec.to_json()) == spec

    def test_missing_field_rejected(self):
        payload = _spec().to_json()
        del payload["metrics"]
        with pytest.raises(ValueError, match="metrics"):
            CharSpec.from_json(payload)

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(_spec().to_json()))
        assert load_spec(path) == _spec()

    def test_resolve_builtin_then_file_then_error(self, tmp_path):
        assert resolve_spec("nominal") is BUILTIN_SPECS["nominal"]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(_spec().to_json()))
        assert resolve_spec(str(path)) == _spec()
        with pytest.raises(ValueError, match="unknown spec"):
            resolve_spec("no_such_spec")


class TestBuiltins:
    def test_builtin_specs_compile(self):
        for spec in BUILTIN_SPECS.values():
            entries = spec.entries()
            assert entries, spec.name
            assert [e.index for e in entries] == list(range(len(entries)))

    def test_nominal_covers_fig11_and_power_table_points(self):
        spec = BUILTIN_SPECS["nominal"]
        points = {(p.design, p.vdd) for p in spec.points()}
        for design in ("cmos", "proposed", "asym", "7t"):
            for vdd in (0.5, 0.6, 0.7, 0.8, 0.9):
                assert (design, vdd) in points
        assert ("outward_n", 0.8) in points  # the power table's outward row


def test_point_label_and_coords():
    point = CharPoint(design="cmos", corner="tt", vdd=0.8, beta=1.5)
    assert point.coords() == {
        "design": "cmos", "corner": "tt", "vdd": 0.8, "beta": 1.5,
    }
    assert "cmos" in point.label() and "0.8" in point.label()
