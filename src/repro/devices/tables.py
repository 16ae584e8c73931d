"""Lookup tables for table-driven compact device models.

The paper's methodology stores TCAD-extracted I-V and C-V data in
two-dimensional lookup tables consumed by a Verilog-A model.  This
module is the equivalent substrate: a uniform-grid bicubic
(Catmull-Rom) interpolator with *analytic* partial derivatives, so the
Newton-Raphson solver in :mod:`repro.circuit` always sees a C1-smooth
device characteristic.

Device currents span ~13 orders of magnitude (1e-17 A/um off current to
1e-4 A/um on current).  Interpolating raw currents would drown the
subthreshold decades in interpolation error, so :class:`CurrentTable`
factors the current into an analytic drain shape and a positive residue
interpolated in log space.

One kernel, :func:`evaluate_stacked`, evaluates tables at stacked
``(2, m)`` coordinate arrays; the scalar tables and the stacked-batch
registry (:mod:`repro.circuit.batch`) both run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry import core as telemetry
from repro.verify import audits as verify_audits
from repro.verify import core as verify

__all__ = ["UniformGrid", "CubicTable2D", "CurrentTable", "evaluate_stacked"]


@dataclass(frozen=True)
class UniformGrid:
    """A uniformly spaced 1-D sample axis.

    The spacing and the sample vector are computed once at
    construction — the cell lookup sits inside every device evaluation
    of every Newton iteration, so it must not redo the division or
    allocate the linspace per call.
    """

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 4:
            raise ValueError(f"grid needs at least 4 points for cubic patches, got {self.count}")
        if not self.stop > self.start:
            raise ValueError(f"grid stop ({self.stop}) must exceed start ({self.start})")
        step = (self.stop - self.start) / (self.count - 1)
        points = np.linspace(self.start, self.stop, self.count)
        points.setflags(write=False)
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_inv_step", 1.0 / step)
        object.__setattr__(self, "_points", points)

    @property
    def step(self) -> float:
        """Spacing between adjacent samples."""
        return self._step

    def points(self) -> np.ndarray:
        """The sample coordinates as a read-only vector of length ``count``."""
        return self._points

    def cell_of(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map coordinates to (cell index, normalized offset in [0, 1]).

        Coordinates are clamped to the grid domain; callers handle
        out-of-domain extension separately.
        """
        xc = np.minimum(np.maximum(x, self.start), self.stop)
        return _cell_of(xc, self.start, self._inv_step, self.count - 2)


def _cell_of(xc, start, inv_step, top):
    """Cell index and in-cell offset of already-clamped coordinates.

    ``xc >= start`` after the clamp, so integer truncation is floor and
    only the upper cell bound ``top`` needs enforcing.  Grid parameters
    broadcast against ``xc``: scalars for one axis, ``(2, 1)`` columns
    for a stacked (x, y) pair, per-point gathers for mixed tables.
    """
    pos = (xc - start) * inv_step
    idx = np.minimum(pos.astype(np.intp), top)
    return idx, pos - idx


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    """Catmull-Rom blending weights for the 4 support points of a cell.

    Returns an array of shape ``(4,) + t.shape``.
    """
    t2 = t * t
    t3 = t2 * t
    w0 = 0.5 * (-t3 + 2.0 * t2 - t)
    w1 = 0.5 * (3.0 * t3 - 5.0 * t2 + 2.0)
    w2 = 0.5 * (-3.0 * t3 + 4.0 * t2 + t)
    w3 = 0.5 * (t3 - t2)
    return np.stack([w0, w1, w2, w3])


def _catmull_rom_dweights(t: np.ndarray) -> np.ndarray:
    """Derivative of the Catmull-Rom weights with respect to ``t``."""
    t2 = t * t
    w0 = 0.5 * (-3.0 * t2 + 4.0 * t - 1.0)
    w1 = 0.5 * (9.0 * t2 - 10.0 * t)
    w2 = 0.5 * (-9.0 * t2 + 8.0 * t + 1.0)
    w3 = 0.5 * (3.0 * t2 - 2.0 * t)
    return np.stack([w0, w1, w2, w3])


_CATMULL_ROM_BASIS = 0.5 * np.array(
    [
        [0.0, 2.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [2.0, -5.0, 4.0, -1.0],
        [-1.0, 3.0, -3.0, 1.0],
    ]
)
"""Power-basis form of the weights above: w_k(t) = sum_a B[a, k] t^a."""

_CATMULL_ROM_TERMS = tuple(
    tuple((k, float(weight)) for k, weight in enumerate(row) if weight != 0.0)
    for row in _CATMULL_ROM_BASIS
)
"""The non-zero ``(k, B[a, k])`` of each row a of the basis: 11 of 16."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_ONE_ZERO = _read_only(np.array([1.0, 0.0]))
"""Constant power-basis entries: t^0 in the value row, d(t^0)/dt in the
derivative row."""

_TWO_THREE = _read_only(np.array([2.0, 3.0]))
"""Factors taking (t, t^2) of the value row to (2t, 3t^2) of the
derivative row."""


def evaluate_stacked(
    coeffs: np.ndarray,
    p: np.ndarray,
    lo,
    hi,
    inv,
    top,
    stride,
    base=None,
    shape_voltage=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table kernel: bicubic value, gradient and optional drain shape.

    ``p`` stacks the coordinates as ``(2, m)`` rows (x, y) — for a
    device table (V_GS, V_DS).  Grid parameters (``lo``/``hi`` domain
    bounds, ``inv`` inverse steps, ``top`` last cell index, ``stride``
    cells per x row, ``base`` first cell of each point's table in
    ``coeffs``) are ``(2, 1)`` columns and scalars for one table, or
    per-point gathers of shape ``(2, m)``/``(m,)`` when the points mix
    tables.  Without ``shape_voltage`` this returns ``(f, df/dx,
    df/dy)`` of the interpolated surface (continued as the tangent
    plane outside the domain); with it, the surface is the log-residue
    of a :class:`CurrentTable` and the result is ``(i, di/dvgs,
    di/dvds)``.  Every output has shape ``(m,)``.
    """
    pc = np.minimum(np.maximum(p, lo), hi)
    f, g, fxy = _bicubic(coeffs, pc, lo, inv, top, stride, base)
    return _extend(p, pc, f, g, fxy, shape_voltage)


def _bicubic(coeffs, pc, lo, inv, top, stride, base):
    """In-domain stage of :func:`evaluate_stacked` at clamped points.

    Returns ``(f, g, fxy)`` with ``g`` the stacked ``(2, m)`` gradient.
    """
    idx, t = _cell_of(pc, lo, inv, top)
    cell = idx[0] * stride + idx[1]
    if base is not None:
        cell += base
    cells = coeffs[cell]

    # Power bases of both axes in one buffer: b[axis, point] holds the
    # value row (1, t, t^2, t^3) and the derivative row (0, 1, 2t, 3t^2).
    # Contract them with the baked per-cell coefficient blocks in two
    # batched matmuls: out = U . C . V, shape (m, 2, 2).  V is made
    # contiguous so the matmul sees the same operand layouts as a
    # separately built (m, 4, 2) array.
    m = cells.shape[0]
    b = np.empty((2, m, 2, 4))
    b[:, :, :, 0] = _ONE_ZERO
    b[:, :, 1, 1] = 1.0
    b[:, :, 0, 1] = t
    t2 = np.multiply(t, t, out=b[:, :, 0, 2])
    np.multiply(t2, t, out=b[:, :, 0, 3])
    np.multiply(b[:, :, 0, 1:3], _TWO_THREE, out=b[:, :, 1, 2:])
    out = (b[0] @ cells @ np.ascontiguousarray(b[1].transpose(0, 2, 1))).reshape(m, 4)

    # out rows are (f, f_ty, f_tx, f_txty) in cell units.
    g = out[:, 2:0:-1].T * inv
    fxy = out[:, 3] * (inv[0] * inv[1])
    return out[:, 0], g, fxy


def _extend(p, pc, f, g, fxy, shape_voltage):
    """Tangent-plane continuation outside the domain, then the shape.

    The continuation (mixed term included) keeps values and first
    derivatives continuous across the domain boundary.  It runs only
    when some point lies outside; points inside need no correction.
    """
    d = p - pc
    if d.any():
        gd = g * d
        f = f + gd[0] + gd[1] + fxy * d[0] * d[1]
        g = g + fxy * d[::-1]
    if shape_voltage is None:
        return f, g[0], g[1]
    shape, decay = _drain_shape(p[1], shape_voltage)
    residue = np.exp(f)
    current = shape * residue
    dg = current * g
    return current, dg[0], (decay / shape_voltage) * residue + dg[1]


def _drain_shape(vds, shape_voltage):
    """``sign(v) (1 - exp(-|v| / v_shape))`` and its exponential.

    The exponential is returned too: divided by ``v_shape`` it is the
    shape's derivative, so value and derivative share one ``exp``.
    """
    decay = np.exp(-np.abs(vds) / shape_voltage)
    return np.sign(vds) * (1.0 - decay), decay


def _stack(x, y) -> tuple[np.ndarray, tuple[int, ...]]:
    """Broadcast ``x``/``y`` and stack them as ``(2, m)`` float rows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    return np.array((x, y)).reshape(2, -1), x.shape


def _shaped(results, shape: tuple[int, ...]) -> tuple:
    """Kernel outputs (flat per point) in the caller's broadcast shape.

    Scalar input gives numpy scalars, as ufuncs on 0-d input do.
    """
    if len(shape) == 1:
        return results
    if not shape:
        return tuple(r[0] for r in results)
    return tuple(r.reshape(shape) for r in results)


class CubicTable2D:
    """C1 bicubic interpolation of samples on a uniform 2-D grid.

    Outside the sampled domain the surface continues as the tangent
    plane (including the mixed term), so values *and* first derivatives
    are continuous across the domain boundary.

    Evaluation runs on per-cell polynomial coefficients baked at
    construction (two batched matmuls per call, in
    :func:`evaluate_stacked`); the pre-optimization
    weight-stacking einsum kernel is retained behind
    ``reference_evaluation`` so benchmarks can reconstruct the seed hot
    path and tests can pin the two kernels to each other.
    """

    reference_evaluation = False
    """Class-wide switch routing :meth:`evaluate` through the retained
    seed kernel.  For benchmarks and tests only."""

    def __init__(self, x_grid: UniformGrid, y_grid: UniformGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (x_grid.count, y_grid.count):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({x_grid.count}, {y_grid.count})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")
        self.x_grid = x_grid
        self.y_grid = y_grid
        self.values = values
        self._padded = _pad_linear(values)
        self._padded_flat = self._padded.reshape(-1)
        # Per-cell bicubic polynomial coefficients, baked once (see
        # _bake_coefficients; about 7 ms for 141x141 samples, three
        # times the physics sampling of a device table).  Evaluation
        # then gathers one (4, 4) block per point and runs two batched
        # matmuls — no per-call weight stacking or einsum.
        self._coeffs = _bake_coefficients(self._padded)  # indexed by ix * (ny - 1) + iy
        # Grid parameters as (2, 1) columns (x row, y row) broadcasting
        # against stacked (2, m) points in evaluate_stacked.
        self._lo = _column(x_grid.start, y_grid.start)
        self._hi = _column(x_grid.stop, y_grid.stop)
        self._inv = _column(x_grid._inv_step, y_grid._inv_step)
        self._top = _column(x_grid.count - 2, y_grid.count - 2, dtype=np.intp)
        self._stride = y_grid.count - 1
        tel = telemetry.active()
        if tel is not None:
            tel.count("tables.builds")
            tel.count("tables.build_points", values.size)

    def evaluate(
        self, x: np.ndarray | float, y: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolate ``(f, df/dx, df/dy)`` at the given coordinates.

        Accepts scalars or broadcast-compatible arrays and returns
        arrays of the broadcast shape (numpy scalars for scalar input).
        """
        p, shape = _stack(x, y)
        return _shaped(self._interpolate(p), shape)

    def __call__(self, x: np.ndarray | float, y: np.ndarray | float) -> np.ndarray:
        """Interpolated value only (same domain handling as evaluate)."""
        return self.evaluate(x, y)[0]

    def _interpolate(self, p: np.ndarray, shape_voltage: float | None = None):
        """One scalar-path evaluation of stacked ``(2, m)`` points.

        Counts the call, runs the sampled table audit, and dispatches
        to :func:`evaluate_stacked` (or, under ``reference_evaluation``,
        to the seed kernel plus the same continuation and shape).
        """
        # Hot path: a direct module-global read instead of the
        # telemetry.active() call — this runs once per device group per
        # Newton iteration, and the function-call overhead is
        # measurable against the vectorized interpolation below.
        tel = telemetry._session
        if tel is not None:
            tel.count("tables.evals")
            tel.count("tables.eval_points", p.shape[1])

        # Same direct module-global read as telemetry above: when
        # verification is off, the audit costs one attribute load.
        ver = verify._session
        if ver is not None and ver.options.table_audit and ver.table_due():
            verify_audits.audit_table(ver, self, p[0], p[1])

        if CubicTable2D.reference_evaluation:
            pc = np.minimum(np.maximum(p, self._lo), self._hi)
            f, fx, fy, fxy = self._evaluate_inside_reference(pc[0], pc[1])
            return _extend(p, pc, f, np.array((fx, fy)), fxy, shape_voltage)
        return evaluate_stacked(
            self._coeffs, p, self._lo, self._hi, self._inv, self._top,
            self._stride, shape_voltage=shape_voltage,
        )

    def _evaluate_inside(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(f, fx, fy, fxy)`` from the in-domain stage of the shared
        kernel, at the coordinates clamped into the domain."""
        p, shape = _stack(x, y)
        pc = np.minimum(np.maximum(p, self._lo), self._hi)
        f, g, fxy = _bicubic(
            self._coeffs, pc, self._lo, self._inv, self._top, self._stride, None
        )
        return tuple(r.reshape(shape) for r in (f, g[0], g[1], fxy))

    def _evaluate_inside_reference(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The seed evaluation kernel, kept verbatim (see class docs)."""
        ix, tx = self.x_grid.cell_of(x)
        iy, ty = self.y_grid.cell_of(y)

        wx = _catmull_rom_weights(tx)
        dwx = _catmull_rom_dweights(tx)
        wy = _catmull_rom_weights(ty)
        dwy = _catmull_rom_dweights(ty)

        # Gather the 4x4 support patch in one flat take; +a/+b offsets
        # account for the ghost padding ring.
        ny = self._padded.shape[1]
        base = ix * ny + iy
        offsets = (np.arange(4)[:, np.newaxis] * ny + np.arange(4)).reshape(4, 4, 1)
        patch = self._padded_flat[base.reshape(-1) + offsets].reshape((4, 4) + x.shape)

        # Contract value and derivative weights in one einsum each axis:
        # rows of WX/WY are (weights, derivative weights).
        wxs = np.stack([wx, dwx])
        wys = np.stack([wy, dwy])
        out = np.einsum("ua...,vb...,ab...->uv...", wxs, wys, patch)
        f = out[0, 0]
        fx = out[1, 0] / self.x_grid.step
        fy = out[0, 1] / self.y_grid.step
        fxy = out[1, 1] / (self.x_grid.step * self.y_grid.step)
        return f, fx, fy, fxy


def _column(x_value, y_value, dtype=float) -> np.ndarray:
    """A read-only ``(2, 1)`` column of per-axis grid parameters."""
    return _read_only(np.array([[x_value], [y_value]], dtype=dtype))


def _bake_coefficients(padded: np.ndarray) -> np.ndarray:
    """Per-cell coefficient blocks of the bicubic patches, ``(cells, 4, 4)``.

    Within cell (ix, iy), ``f(tx, ty) = sum_ab C[a, b] tx^a ty^b`` with
    ``C = B . W . B^T``: ``B`` the power-basis Catmull-Rom matrix and
    ``W`` the cell's 4x4 window of the ghost-padded samples.  The sums
    are those of ``np.einsum("ak,ijkl,bl->ijab", B, windows, B)``, in
    its order, bit for bit: ``C[a, b]`` adds up, over k, the partial
    sums over l of ``(B[a, k] W[k, l]) B[b, l]``.  The products with a
    zero entry of ``B`` (135 of each block's 256) are skipped: each is
    +-0 for finite windows, and adding +-0 to a sum that started at +0,
    as the einsum's do, changes no bit.  The sums here start from their
    first term instead, which differs only by giving -0.0 where every
    term is -0.0; adding +0.0 to each finished ``C[a, b]`` restores the
    einsum's +0.0.

    Each (a, b) entry is computed for all cells at once through three
    reusable per-cell buffers, so the working set stays below the
    einsum's.
    """
    cx, cy = padded.shape[0] - 3, padded.shape[1] - 3
    coeffs = np.empty((cx, cy, 4, 4))
    term, partial, total = np.empty((3, cx, cy))
    for a, row_a in enumerate(_CATMULL_ROM_TERMS):
        for b, row_b in enumerate(_CATMULL_ROM_TERMS):
            for n, (k, weight_a) in enumerate(row_a):
                acc = partial if n else total
                for m, (l, weight_b) in enumerate(row_b):
                    product = term if m else acc
                    np.multiply(weight_a, padded[k : k + cx, l : l + cy], out=product)
                    np.multiply(product, weight_b, out=product)
                    if m:
                        np.add(acc, term, out=acc)
                if n:
                    np.add(total, partial, out=total)
            np.add(total, 0.0, out=coeffs[:, :, a, b])
    return coeffs.reshape(-1, 4, 4)


def _pad_linear(values: np.ndarray) -> np.ndarray:
    """Pad a 2-D sample array with one linearly extrapolated ghost ring."""
    nx, ny = values.shape
    padded = np.empty((nx + 2, ny + 2))
    padded[1:-1, 1:-1] = values
    padded[0, 1:-1] = 2.0 * values[0] - values[1]
    padded[-1, 1:-1] = 2.0 * values[-1] - values[-2]
    padded[:, 0] = 2.0 * padded[:, 1] - padded[:, 2]
    padded[:, -1] = 2.0 * padded[:, -2] - padded[:, -3]
    return padded


class CurrentTable:
    """Device current table interpolated in shape-factored log space.

    A raw log/asinh compression of ``i(V_GS, V_DS)`` cannot resolve the
    high-current zero crossing at ``V_DS = 0`` (the compressed surface
    jumps by ~15 within microvolts, so any practical grid reports a
    vanishing output conductance in the resistive region).  This table
    therefore factors the current as

        i(V_GS, V_DS) = shape(V_DS) * y(V_GS, V_DS),

    where ``shape(v) = sign(v) * (1 - exp(-|v| / v_shape))`` carries the
    sign and the resistive-to-saturated drain behaviour analytically,
    and the strictly positive residue ``y`` — finite and smooth through
    ``V_DS = 0`` — is interpolated as ``ln(y)``.  Log interpolation
    preserves relative accuracy across the device's ~13 decades, and
    the analytic shape restores the exact linear-region conductance.

    The factorization requires ``i`` and ``shape`` to share their sign,
    which holds for the unidirectional TFET (forward tunneling for
    V_DS > 0, p-i-n reverse conduction for V_DS < 0).
    """

    DEFAULT_SHAPE_VOLTAGE = 0.12

    def __init__(
        self,
        vgs_grid: UniformGrid,
        vds_grid: UniformGrid,
        current: np.ndarray,
        shape_voltage: float = DEFAULT_SHAPE_VOLTAGE,
    ):
        if shape_voltage <= 0.0:
            raise ValueError(f"shape_voltage must be positive, got {shape_voltage}")
        self.shape_voltage = shape_voltage

        current = np.asarray(current, dtype=float)
        vds = vds_grid.points()
        shape = _drain_shape(vds, shape_voltage)[0][np.newaxis, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            residue = np.where(np.abs(shape) > 0.0, current / shape, np.nan)

        # The V_DS = 0 column (0/0) is filled from its neighbours; the
        # residue is smooth there by construction.
        bad = ~np.isfinite(residue)
        if np.any(bad):
            cols = np.unique(np.nonzero(bad)[1])
            for col in cols:
                left = residue[:, col - 1] if col > 0 else residue[:, col + 1]
                right = residue[:, col + 1] if col < residue.shape[1] - 1 else left
                residue[:, col] = 0.5 * (left + right)
        if np.any(residue <= 0.0):
            raise ValueError(
                "current/shape residue must be strictly positive; the device "
                "current must share the sign of the drain shape function"
            )
        self._table = CubicTable2D(vgs_grid, vds_grid, np.log(residue))
        tel = telemetry.active()
        if tel is not None:
            tel.count("tables.current_builds")

    @property
    def vgs_grid(self) -> UniformGrid:
        return self._table.x_grid

    @property
    def vds_grid(self) -> UniformGrid:
        return self._table.y_grid

    def evaluate(
        self, vgs: np.ndarray | float, vds: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(i, di/dvgs, di/dvds)`` in the stored current units."""
        p, shape = _stack(vgs, vds)
        return _shaped(self._table._interpolate(p, self.shape_voltage), shape)

    def __call__(self, vgs: np.ndarray | float, vds: np.ndarray | float) -> np.ndarray:
        """Interpolated current only."""
        return self.evaluate(vgs, vds)[0]
