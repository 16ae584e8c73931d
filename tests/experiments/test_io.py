"""Tests for experiment-result persistence."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.io import encode_tree, load_json, save_csv, save_json


@pytest.fixture
def result():
    r = ExperimentResult("figX", "demo", ["beta", "wlcrit (ps)", "label"])
    r.add_row(0.6, 742.0, "ok")
    r.add_row(2.0, math.inf, "fails")
    r.notes.append("a note")
    return r


@pytest.fixture
def nonfinite_result():
    r = ExperimentResult("figY", "demo", ["a", "b", "c"])
    r.add_row(math.nan, -math.inf, math.inf)
    return r


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, result, tmp_path):
        path = save_json(result, tmp_path / "r.json")
        loaded = load_json(path)
        assert loaded.experiment_id == result.experiment_id
        assert loaded.title == result.title
        assert loaded.header == result.header
        assert loaded.notes == result.notes
        assert loaded.rows[0] == result.rows[0]

    def test_infinity_survives(self, result, tmp_path):
        loaded = load_json(save_json(result, tmp_path / "r.json"))
        assert math.isinf(loaded.rows[1][1])

    def test_file_is_valid_json(self, result, tmp_path):
        path = save_json(result, tmp_path / "r.json")
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "figX"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"title": "x"}))
        with pytest.raises(ValueError, match="missing"):
            load_json(path)

    def test_nan_and_negative_infinity_survive(self, nonfinite_result, tmp_path):
        loaded = load_json(save_json(nonfinite_result, tmp_path / "r.json"))
        a, b, c = loaded.rows[0]
        assert math.isnan(a)
        assert b == -math.inf
        assert c == math.inf

    def test_file_is_strict_json_without_bare_tokens(self, nonfinite_result, tmp_path):
        # The whole point of the token encoding: the file must parse
        # under a strict decoder that rejects the Python JSON dialect.
        path = save_json(nonfinite_result, tmp_path / "r.json")
        text = path.read_text()
        payload = json.loads(text, parse_constant=lambda token: pytest.fail(
            f"bare non-finite token {token!r} in output"
        ))
        assert payload["rows"][0][0] == {"__float__": "NaN"}
        assert payload["rows"][0][1] == {"__float__": "-Infinity"}
        assert payload["rows"][0][2] == {"__float__": "Infinity"}


def test_encode_tree_wraps_non_finite_floats_at_any_depth():
    tree = {"value": math.inf, "rows": [(1.0, math.nan), {"lo": -math.inf}], "n": 3}
    assert encode_tree(tree) == {
        "value": {"__float__": "Infinity"},
        "rows": [[1.0, {"__float__": "NaN"}], {"lo": {"__float__": "-Infinity"}}],
        "n": 3,
    }
    json.dumps(encode_tree(tree), allow_nan=False)  # strict JSON


class TestCsv:
    def test_csv_has_header_and_rows(self, result, tmp_path):
        path = save_csv(result, tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "beta,wlcrit (ps),label"
        assert len(lines) == 3
        assert "inf" in lines[2]

    def test_csv_spells_out_nonfinite_values(self, nonfinite_result, tmp_path):
        path = save_csv(nonfinite_result, tmp_path / "r.csv")
        assert path.read_text().strip().splitlines()[1] == "nan,-inf,inf"
