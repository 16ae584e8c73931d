"""Per-scale TFET table builds are bit-identical to their plain formulations.

A table build samples the physics model onto the (V_GS, V_DS) grid and
bakes per-cell bicubic coefficients from the samples.
``TfetPhysicalModel.current_density`` solves the gate electrostatics
once, on the un-broadcast V_GS, and shares that transfer between its
forward and reverse branches; ``CubicTable2D`` bakes the coefficients
with the einsum's products in the einsum's order, minus the products
with a zero basis entry.  Neither may change a bit — the circuit solver
and the char-store fingerprints read these arrays — so each is pinned
here against a reference that keeps the plain formulation: the
two-call ``current_density`` on broadcast operands, and the
``np.einsum`` bake.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.devices.library import nominal_tfet_physics, tfet_device
from repro.devices.physics.electrostatics import SurfacePotentialSolver
from repro.devices.physics.tablegen import build_current_table, sample_current_grid
from repro.devices.tables import (
    _CATMULL_ROM_BASIS,
    CubicTable2D,
    UniformGrid,
    _pad_linear,
)


def assert_bits_equal(actual, expected) -> None:
    """Same type, shape and bytes; zero signs are compared explicitly."""
    assert type(actual) is type(expected)
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(np.signbit(actual), np.signbit(expected))
    if actual.tobytes() != expected.tobytes():
        diff = np.flatnonzero(actual.reshape(-1) != expected.reshape(-1))
        raise AssertionError(
            f"{diff.size} elements differ; first at flat index "
            f"{diff[:1].tolist()}: {actual.reshape(-1)[diff[:1]]} vs "
            f"{expected.reshape(-1)[diff[:1]]}"
        )


# -- physics sampling ----------------------------------------------------------


def reference_current_density(model, vgs, vds):
    """Both branches on the broadcast operands, each solving the gate
    electrostatics over the whole broadcast grid."""
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    vgs_b, vds_b = np.broadcast_arrays(vgs, vds)
    forward = (
        model.gate_transfer_density(vgs_b) * model.drain_saturation_factor(vds_b)
        + model._floor_density(np.maximum(vds_b, 0.0))
    )
    reverse = model.reverse_density(vgs_b, -vds_b)
    result = np.where(vds_b >= 0.0, forward, -reverse)
    return result if result.shape else float(result)


def scaled_model(scale: float):
    nominal = nominal_tfet_physics()
    return replace(nominal, design=nominal.design.with_oxide_scale(scale))


GRID = np.linspace(-1.4, 1.4, 141)


class TestCurrentDensity:
    @pytest.mark.parametrize("scale", [1.0, 0.95, 1.0025, 1.05])
    def test_sampling_grid(self, scale):
        model = scaled_model(scale)
        vgs_grid, vds_grid, current = sample_current_grid(model, points=141)
        expected = reference_current_density(
            model, vgs_grid.points()[:, np.newaxis], vds_grid.points()[np.newaxis, :]
        )
        assert_bits_equal(current, expected)

    @pytest.mark.parametrize(
        "vgs, vds",
        [
            (0.3, 0.5),
            (0.3, -0.5),
            (np.float64(0.9), np.float64(1.0)),
            (GRID, 0.4),
            (GRID, -0.4),
            (0.7, GRID),
            (-0.2, GRID),
            (GRID[:, np.newaxis], GRID[np.newaxis, ::7]),
            (GRID[::-3, np.newaxis], GRID[np.newaxis, :]),
            (GRID, GRID[::-1]),
        ],
        ids=[
            "scalar_fwd", "scalar_rev", "numpy_scalars", "1d_x_scalar_fwd",
            "1d_x_scalar_rev", "scalar_x_1d", "scalar_x_1d_low_gate",
            "column_x_row", "reversed_column_x_row", "1d_x_1d",
        ],
    )
    def test_shapes(self, tfet_physics, vgs, vds):
        assert_bits_equal(
            tfet_physics.current_density(vgs, vds),
            reference_current_density(tfet_physics, vgs, vds),
        )

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
    def test_zero_drain_bias(self, tfet_physics, zero):
        for vgs in (GRID, 0.5, GRID[:, np.newaxis]):
            assert_bits_equal(
                tfet_physics.current_density(vgs, zero),
                reference_current_density(tfet_physics, vgs, zero),
            )

    def test_all_reverse(self, tfet_physics):
        vds = -np.abs(GRID[np.newaxis, :]) - 0.01
        assert_bits_equal(
            tfet_physics.current_density(GRID[:, np.newaxis], vds),
            reference_current_density(tfet_physics, GRID[:, np.newaxis], vds),
        )

    def test_gate_electrostatics_solved_once_per_gate_voltage(
        self, tfet_physics, monkeypatch
    ):
        sizes = []
        solve = SurfacePotentialSolver.surface_potential

        def counted(self, vg):
            sizes.append(np.size(vg))
            return solve(self, vg)

        monkeypatch.setattr(SurfacePotentialSolver, "surface_potential", counted)
        sample_current_grid(tfet_physics, points=141)
        assert sizes and max(sizes) <= 141


# -- coefficient bake ----------------------------------------------------------


def einsum_coefficients(values):
    """The einsum bake: C = B . window . B^T per cell, zero products included."""
    windows = np.lib.stride_tricks.sliding_window_view(_pad_linear(values), (4, 4))
    coeffs = np.einsum(
        "ak,ijkl,bl->ijab", _CATMULL_ROM_BASIS, windows, _CATMULL_ROM_BASIS
    )
    return np.ascontiguousarray(coeffs.reshape(-1, 4, 4))


def baked(values):
    values = np.asarray(values, dtype=float)
    nx, ny = values.shape
    table = CubicTable2D(UniformGrid(0.0, 1.0, nx), UniformGrid(-1.0, 1.0, ny), values)
    return table._coeffs


def assert_bake_matches_einsum(coeffs, values):
    nx, ny = values.shape
    assert coeffs.dtype == np.float64
    assert coeffs.shape == ((nx - 1) * (ny - 1), 4, 4)
    assert coeffs.flags.c_contiguous
    assert_bits_equal(coeffs, einsum_coefficients(values))


def random_table(rng, shape, magnitude):
    """Mixed-magnitude samples with +0.0 and -0.0 entries sprinkled in."""
    values = rng.standard_normal(shape) * magnitude * 10.0 ** rng.uniform(-2, 2, shape)
    pick = rng.random(shape)
    values[pick < 0.1] = 0.0
    values[pick > 0.9] = -0.0
    return values


class TestCoefficientBake:
    def test_nominal_tfet_table(self, tfet):
        table = tfet.table._table
        assert_bake_matches_einsum(table._coeffs, table.values)

    @pytest.mark.parametrize("scale", [0.95, 1.05])
    def test_corner_table(self, scale):
        table = tfet_device(scale).table._table
        assert_bake_matches_einsum(table._coeffs, table.values)

    def test_coarse_table(self, tfet_physics):
        table = build_current_table(tfet_physics, points=31)._table
        assert table.values.shape == (31, 31)
        assert_bake_matches_einsum(table._coeffs, table.values)

    @pytest.mark.parametrize(
        "shape",
        [(4, 4), (4, 9), (17, 5), (31, 31), (60, 141), (141, 141), (281, 281)],
    )
    @pytest.mark.parametrize("magnitude", [1e-18, 1.0, 1e4])
    def test_random_tables(self, shape, magnitude):
        rng = np.random.default_rng(sum(shape) + int(np.log10(magnitude)) + 100)
        values = random_table(rng, shape, magnitude)
        assert_bake_matches_einsum(baked(values), values)

    @pytest.mark.parametrize("fill", [-0.0, 0.0], ids=["minus_zero", "plus_zero"])
    def test_constant_zero_tables(self, fill):
        values = np.full((9, 12), fill)
        coeffs = baked(values)
        assert_bake_matches_einsum(coeffs, values)
        assert not np.signbit(coeffs).any()
