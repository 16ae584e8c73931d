"""The fused device kernels are bit-identical to their plain formulations.

``MosfetModel.evaluate_density`` evaluates the point and its four
finite-difference probes as one stacked array, and evaluates only the
conducting direction of each point; the table kernel
(:func:`repro.devices.tables.evaluate_stacked`) does one clamp, one cell
lookup and one basis build for both axes, and serves the scalar tables
and the stacked-batch registry alike.  Neither may change a bit, so
each is pinned here against a reference that keeps the plain
formulation: five separate two-branch ``current_density`` calls, and
per-axis lookup plus separately built matmul operands followed by the
``CurrentTable`` shape arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.batch import _TableRegistry
from repro.constants import thermal_voltage
from repro.devices.library import tfet_device
from repro.devices.tables import CubicTable2D, CurrentTable, UniformGrid
from repro.telemetry import core as telemetry
from repro.verify import core as verify


def assert_bits_equal(actual, expected) -> None:
    """Same shape and the same bytes (so also the same signed zeros)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    if actual.tobytes() != expected.tobytes():
        diff = np.flatnonzero(actual.reshape(-1) != expected.reshape(-1))
        raise AssertionError(
            f"{diff.size} elements differ; first at flat index "
            f"{diff[:1].tolist()}: {actual.reshape(-1)[diff[:1]]} vs "
            f"{expected.reshape(-1)[diff[:1]]}"
        )


# -- MOSFET ------------------------------------------------------------------


def reference_forward_density(params, vgs, vds):
    p = params
    vt = thermal_voltage(p.temperature)
    vth = p.threshold_voltage - p.dibl * vds
    pinch = (vgs - vth) / p.subthreshold_slope_factor
    half = 2.0 * vt
    forward = np.logaddexp(0.0, pinch / half) ** 2
    reverse = np.logaddexp(0.0, (pinch - vds) / half) ** 2
    i_long = p.transconductance_density * (forward - reverse)
    overdrive = half * np.logaddexp(0.0, pinch / half)
    saturation = 1.0 + overdrive / p.mobility_reduction_voltage
    clm = 1.0 + p.channel_length_modulation * vds
    return i_long * clm / saturation


def reference_current_density(model, vgs, vds):
    """Both conduction directions everywhere, selected afterwards."""
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    vgs_b, vds_b = np.broadcast_arrays(vgs, vds)
    forward = reference_forward_density(model.params, vgs_b, np.maximum(vds_b, 0.0))
    swapped = reference_forward_density(
        model.params, vgs_b - vds_b, np.maximum(-vds_b, 0.0)
    )
    result = np.where(vds_b >= 0.0, forward, -swapped)
    return result if result.shape else float(result)


def reference_evaluate_density(model, vgs, vds, step=1e-5):
    """Five separate current evaluations: the point and four probes."""
    i0 = reference_current_density(model, vgs, vds)
    gm = (
        reference_current_density(model, np.asarray(vgs) + step, vds)
        - reference_current_density(model, np.asarray(vgs) - step, vds)
    ) / (2.0 * step)
    gds = (
        reference_current_density(model, vgs, np.asarray(vds) + step)
        - reference_current_density(model, vgs, np.asarray(vds) - step)
    ) / (2.0 * step)
    return i0, gm, gds


def mosfet_cases():
    rng = np.random.default_rng(11)
    vgs = rng.uniform(-1.0, 1.2, 64)
    vds = rng.uniform(-1.0, 1.0, 64)
    seam = np.array([0.0, -0.0, 1e-12, -1e-12, 5e-6, -5e-6, 1e-5, -1e-5])
    return [
        ("scalar_forward", 0.6, 0.3),
        ("scalar_reverse", 0.2, -0.5),
        ("scalar_seam", 0.45, 0.0),
        ("scalar_negative_zero", 0.45, -0.0),
        ("array", vgs, vds),
        ("array_seam", np.full(seam.size, 0.5), seam),
        ("scalar_vgs_array_vds", 0.7, vds),
        ("array_vgs_scalar_vds", vgs, -0.2),
        ("broadcast_2d", vgs[:4, None], vds[None, :5]),
    ]


@pytest.mark.parametrize("case", mosfet_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("device", ["nmos", "pmos"])
def test_mosfet_probe_pass_matches_five_calls(case, device, request):
    model = request.getfixturevalue(device)
    _, vgs, vds = case
    fused = model.evaluate_density(vgs, vds)
    reference = reference_evaluate_density(model, vgs, vds)
    for got, want in zip(fused, reference):
        assert type(got) is type(want)
        assert_bits_equal(got, want)


@pytest.mark.parametrize("case", mosfet_cases(), ids=lambda c: c[0])
def test_mosfet_conducting_direction_matches_both_branches(case, nmos):
    _, vgs, vds = case
    got = nmos.current_density(vgs, vds)
    want = reference_current_density(nmos, vgs, vds)
    assert type(got) is type(want)
    assert_bits_equal(got, want)


# -- device tables -------------------------------------------------------------


def reference_evaluate_inside(table: CubicTable2D, x, y):
    """Per-axis cell lookup and separately built (m,2,4)/(m,4,2) bases."""
    ix, tx = table.x_grid.cell_of(x)
    iy, ty = table.y_grid.cell_of(y)
    cells = table._coeffs[(ix * (table.y_grid.count - 1) + iy).reshape(-1)]
    m = cells.shape[0]
    txf = tx.reshape(-1)
    tyf = ty.reshape(-1)
    u = np.empty((m, 2, 4))
    v = np.empty((m, 4, 2))
    tx2 = txf * txf
    u[:, 0, 0] = 1.0
    u[:, 0, 1] = txf
    u[:, 0, 2] = tx2
    u[:, 0, 3] = tx2 * txf
    u[:, 1, 0] = 0.0
    u[:, 1, 1] = 1.0
    u[:, 1, 2] = 2.0 * txf
    u[:, 1, 3] = 3.0 * tx2
    ty2 = tyf * tyf
    v[:, 0, 0] = 1.0
    v[:, 1, 0] = tyf
    v[:, 2, 0] = ty2
    v[:, 3, 0] = ty2 * tyf
    v[:, 0, 1] = 0.0
    v[:, 1, 1] = 1.0
    v[:, 2, 1] = 2.0 * tyf
    v[:, 3, 1] = 3.0 * ty2
    out = u @ cells @ v
    shape = x.shape
    inv_hx = table.x_grid._inv_step
    inv_hy = table.y_grid._inv_step
    f = out[:, 0, 0].reshape(shape)
    fx = (out[:, 1, 0] * inv_hx).reshape(shape)
    fy = (out[:, 0, 1] * inv_hy).reshape(shape)
    fxy = (out[:, 1, 1] * (inv_hx * inv_hy)).reshape(shape)
    return f, fx, fy, fxy


def reference_cubic_evaluate(table: CubicTable2D, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    xc = np.minimum(np.maximum(x, table.x_grid.start), table.x_grid.stop)
    yc = np.minimum(np.maximum(y, table.y_grid.start), table.y_grid.stop)
    f, fx, fy, fxy = reference_evaluate_inside(table, xc, yc)
    dx = x - xc
    dy = y - yc
    if np.any((dx != 0.0) | (dy != 0.0)):
        return f + fx * dx + fy * dy + fxy * dx * dy, fx + fxy * dy, fy + fxy * dx
    return f, fx, fy


def reference_current_evaluate(table: CurrentTable, vgs, vds):
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if vgs.shape != vds.shape:
        vgs, vds = np.broadcast_arrays(vgs, vds)
    z, dz_dvgs, dz_dvds = reference_cubic_evaluate(table._table, vgs, vds)
    sv = table.shape_voltage
    residue = np.exp(z)
    shape = np.sign(vds) * (1.0 - np.exp(-np.abs(vds) / sv))
    current = shape * residue
    di_dvgs = current * dz_dvgs
    di_dvds = (np.exp(-np.abs(vds) / sv) / sv) * residue + current * dz_dvds
    return current, di_dvgs, di_dvds


def synthetic_current_table() -> CurrentTable:
    vgs_grid = UniformGrid(-1.2, 1.2, 61)
    vds_grid = UniformGrid(-1.1, 1.3, 49)
    vgs = vgs_grid.points()[:, None]
    vds = vds_grid.points()[None, :]
    gate = 1e-17 + 1e-4 * np.exp((vgs - 1.0) / 0.08)
    shape = np.sign(vds) * (1.0 - np.exp(-np.abs(vds) / 0.1))
    return CurrentTable(vgs_grid, vds_grid, shape * (gate + 1e-12 * np.exp(-vds / 0.05)), 0.1)


def table_cases():
    rng = np.random.default_rng(5)
    inside = rng.uniform(-1.0, 1.0, (2, 200))
    outside = rng.uniform(-1.8, 1.8, (2, 200))
    edge = np.array([[-1.2, 1.2, 0.3, 0.3, 1.25, -1.3], [0.0, -0.0, -1.1, 1.3, 0.0, 1.4]])
    return [
        ("inside_1d", inside[0], inside[1]),
        ("outside_1d", outside[0], outside[1]),
        ("edges_and_seam", edge[0], edge[1]),
        ("single_point", inside[0, :1], inside[1, :1]),
        ("inside_2d", inside[0].reshape(10, 20), inside[1].reshape(10, 20)),
        ("outside_2d", outside[0].reshape(20, 10), outside[1].reshape(20, 10)),
        ("broadcast", outside[0, :7, None], inside[1, None, :9]),
        ("scalar_inside", 0.4, 0.3),
        ("scalar_outside", 1.7, -1.6),
    ]


@pytest.fixture(scope="module", params=["tfet", "synthetic"])
def current_table(request):
    if request.param == "tfet":
        return tfet_device().table
    return synthetic_current_table()


@pytest.mark.parametrize("case", table_cases(), ids=lambda c: c[0])
def test_current_table_kernel_matches_reference(case, current_table):
    _, vgs, vds = case
    fused = current_table.evaluate(vgs, vds)
    reference = reference_current_evaluate(current_table, vgs, vds)
    for got, want in zip(fused, reference):
        assert_bits_equal(got, want)


@pytest.mark.parametrize("case", table_cases(), ids=lambda c: c[0])
def test_cubic_table_kernel_matches_reference(case, current_table):
    _, x, y = case
    table = current_table._table
    fused = table.evaluate(x, y)
    reference = reference_cubic_evaluate(table, x, y)
    for got, want in zip(fused, reference):
        assert_bits_equal(got, want)


def test_inside_stage_matches_reference(current_table):
    # The verify table audit compares this stage with the seed kernel.
    table = current_table._table
    rng = np.random.default_rng(8)
    x = rng.uniform(table.x_grid.start, table.x_grid.stop, 300)
    y = rng.uniform(table.y_grid.start, table.y_grid.stop, 300)
    for got, want in zip(table._evaluate_inside(x, y), reference_evaluate_inside(table, x, y)):
        assert_bits_equal(got, want)


def test_reference_switch_still_routes_the_seed_kernel(current_table, monkeypatch):
    table = current_table._table
    calls = []
    seed = CubicTable2D._evaluate_inside_reference

    def spy(self, x, y):
        calls.append(x.size)
        return seed(self, x, y)

    monkeypatch.setattr(CubicTable2D, "_evaluate_inside_reference", spy)
    monkeypatch.setattr(CubicTable2D, "reference_evaluation", True)
    x = np.array([0.1, 1.7])
    y = np.array([0.2, -0.4])
    got = current_table.evaluate(x, y)
    assert calls == [2]
    monkeypatch.setattr(CubicTable2D, "reference_evaluation", False)
    fast = current_table.evaluate(x, y)
    for a, b in zip(got, fast):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)


def test_registry_interleaved_tables_match_per_table_evaluation():
    tables = [tfet_device(1.0).table, tfet_device(1.03).table]
    registry = _TableRegistry()
    slots = [registry.slot_of(t) for t in tables]
    rng = np.random.default_rng(3)
    n = 400
    tbl = np.array(slots, dtype=np.intp)[rng.integers(0, 2, n)]
    vgs = rng.uniform(-1.0, 1.0, n)
    vds = rng.uniform(-1.0, 1.0, n)
    vds[:4] = 0.0
    for lo, hi in ((-1.0, 1.0), (-1.7, 1.7)):
        vgs = rng.uniform(lo, hi, n)
        stacked = registry.evaluate(tbl, vgs, vds)
        for slot, table in zip(slots, tables):
            mine = tbl == slot
            own = table.evaluate(vgs[mine], vds[mine])
            for got, want in zip(stacked, own):
                assert_bits_equal(got[mine], want)


def test_scalar_path_counts_and_audits_every_evaluation(current_table):
    # perfbench's determinism report reads tables.eval_points; the
    # verify table audit must keep sampling CurrentTable evaluations,
    # which no longer pass through CubicTable2D.evaluate.
    options = verify.VerifyOptions(table_interval=1)
    with telemetry.enabled() as tel, verify.enabled(options) as session:
        current_table.evaluate(np.zeros(5), np.linspace(-0.5, 0.5, 5))
        current_table._table.evaluate(0.1, np.zeros((2, 3)))
        current_table(0.3, 0.2)
    assert tel.counters["tables.evals"] == 3
    assert tel.counters["tables.eval_points"] == 12
    assert session.audits["table"] == 3
    assert session.violation_count == 0
