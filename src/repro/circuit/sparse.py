"""Sparse MNA assembly: fixed-pattern CSC stamping with splu.

Dense assembly (:class:`repro.circuit.mna.MnaSystem`) copies an
``size x size`` Jacobian per stamp and hands it to dense LAPACK — an
O(n^2) copy and an O(n^3) factorization that are invisible at SRAM-cell
sizes (~10 unknowns) but dominate array-scale netlists (bitline RC
ladders, decoder chains: hundreds to thousands of unknowns at ~5
nonzeros per row).

:class:`SparseMnaSystem` reuses every compiled index/sign array of the
dense assembler and changes only where stamps land:

* the sparsity *pattern* is computed once at compile time — the union
  of the linear-stamp nonzeros, the gmin/clamp diagonal, and the
  transistor/capacitor scatter targets — and every flat dense index
  (``row * size + col``) is pre-mapped to its position in the CSC data
  vector, so per-call stamping is the same handful of ``np.add.at``
  scatters, now into a length-nnz vector instead of ``size**2`` (the
  source, transistor and capacitor stamps are the dense assembler's
  own methods, pointed at the CSC slots);
* the compile itself is O(nnz) in memory: the linear stamp arrives as
  triplets and is summed per index, never as a ``size x size`` matrix;
* the residual's linear mat-vec runs on a CSR copy of the constant
  linear stamp (O(nnz) instead of O(n^2));
* the fill-reducing column order is computed once per pattern too (see
  below), and the CSC data vector is laid out in that order, so every
  assembly writes the column-permuted Jacobian ``A·Pc`` into the one
  ``scipy.sparse`` matrix built at compile time.

Ordering reuse.  scipy's ``splu`` exposes no values-only refactorization
hook, but SuperLU's final column order ``perm_c`` — COLAMD followed by
the postorder of the column elimination tree — reads only the pattern.
The compile takes it from one ``splu(..., permc_spec="COLAMD")`` of a
probe matrix with the compiled pattern (unit off-diagonals, the row's
off-diagonal count + 1 on the diagonal, so never singular);
``assemble(copy=False)`` hands the Newton solver ``A·Pc`` with
``perm_c`` as a :class:`ColumnOrderedJacobian`, and
:class:`SparseFactorization` factors it with ``permc_spec="NATURAL"``
and un-permutes each solution.  A re-stamp then skips COLAMD and the
postorder; SuperLU's symbolic and numeric factorization still run per
call.  Only columns are relabelled, so SuperLU walks the same column
sequence, row labels and tie order as on its COLAMD path: ``L``, ``U``,
``perm_r`` and every solve equal those of
``splu(A, permc_spec="COLAMD")`` bit for bit, except on the exact pivot
tie :class:`SparseFactorization` describes.

:func:`selects_sparse` states the selection rule and :func:`make_system`
applies it: ``"auto"`` picks sparse when the system size reaches
``sparse_threshold``, so small decks keep the dense fast path that
beats sparse overhead below ~tens of unknowns.  Selection is recorded
on the telemetry counters ``mna.sparse_selected`` /
``mna.dense_selected`` (surfaced by ``repro diag``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse as _sparse
from scipy.sparse.linalg import splu as _splu

from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.netlist import Circuit
from repro.telemetry import core as telemetry

__all__ = [
    "DEFAULT_SPARSE_THRESHOLD",
    "ColumnOrderedJacobian",
    "SparseMnaSystem",
    "SparseFactorization",
    "make_system",
    "selects_sparse",
]

DEFAULT_SPARSE_THRESHOLD = 64
"""``"auto"`` switches to CSC assembly at this system size (unknowns)."""

MATRIX_FORMATS = ("auto", "dense", "sparse")


class ColumnOrderedJacobian(NamedTuple):
    """A stamped Jacobian ``A`` held as ``A·Pc``, ready for SuperLU.

    What ``SparseMnaSystem.assemble(copy=False)`` returns: column ``j``
    of ``matrix`` is column ``i`` of ``A`` where ``perm_c[i] == j``
    (SuperLU's convention).
    """

    matrix: _sparse.csc_matrix
    perm_c: np.ndarray


def _column_order(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """SuperLU's COLAMD column order for a CSC pattern with a full diagonal.

    Factors a probe matrix of that pattern whose values make it strictly
    diagonally dominant (unit off-diagonals, the row's off-diagonal count
    + 1 on the diagonal); the order depends on the pattern alone.
    """
    size = indptr.size - 1
    cols = np.repeat(np.arange(size), np.diff(indptr))
    diagonal = indices == cols
    off_diagonal_per_row = np.bincount(indices[~diagonal], minlength=size)
    values = np.ones(indices.size)
    values[diagonal] = off_diagonal_per_row[indices[diagonal]] + 1.0
    probe = _sparse.csc_matrix((values, indices, indptr), shape=(size, size))
    return _splu(probe, permc_spec="COLAMD").perm_c.astype(np.intp)


class SparseFactorization:
    """splu of one compiled Jacobian, matching ``_Factorization``'s
    contract: construction raises ``np.linalg.LinAlgError`` on a
    singular or non-finite matrix, ``solve`` back-substitutes.

    ``jac`` is a :class:`ColumnOrderedJacobian`, factored in its given
    column order (``permc_spec="NATURAL"``); ``solve`` returns the
    solution in the natural order.

    The one difference from ``splu(A, permc_spec="COLAMD")``: SuperLU
    keeps "the diagonal" as pivot when its magnitude reaches
    ``DiagPivotThresh`` (1.0) times the column's largest, and names the
    diagonal by column position — in ``A·Pc`` that is a different row of
    the relabelled column than on the COLAMD path.  At threshold 1.0 the
    two rules part only on an *exact* magnitude tie between the column's
    largest entry and the entry each names; SuperLU may then pick a
    different, equally valid pivot, and the solution can differ in its
    last digits.
    """

    __slots__ = ("_lu", "_perm_c")

    def __init__(self, jac: ColumnOrderedJacobian):
        matrix, self._perm_c = jac
        if not np.isfinite(matrix.data).all():
            raise np.linalg.LinAlgError("non-finite sparse Jacobian")
        try:
            self._lu = _splu(matrix, permc_spec="NATURAL")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)[self._perm_c]


class SparseMnaSystem(MnaSystem):
    """MNA assembler producing fixed-pattern CSC Jacobians.

    The public surface is identical to :class:`MnaSystem` except for
    the Jacobian ``assemble`` returns: with ``copy`` a
    ``scipy.sparse.csc_matrix`` of private arrays in the natural column
    order; without, the Newton solver's fast path, the compiled
    :class:`ColumnOrderedJacobian` whose data buffer the next assembly
    overwrites.
    """

    def _compile_matrix(self, rows, cols, vals) -> None:
        size = self.size
        n = self.n_nodes

        # The linear stamp summed per flat index in element order, exact
        # zeros dropped: the nonzeros of the dense class's ``_lin``,
        # without its size x size matrix.
        lin_flat, where = np.unique(rows * size + cols, return_inverse=True)
        lin_vals = np.zeros(lin_flat.size)
        np.add.at(lin_vals, where, vals)
        nonzero = lin_vals != 0.0
        lin_flat, lin_vals = lin_flat[nonzero], lin_vals[nonzero]
        lin_rows, lin_cols = np.divmod(lin_flat, size)
        self._lin_csr = _sparse.csr_matrix(
            (
                lin_vals,
                lin_cols.astype(np.int32),
                np.searchsorted(lin_rows, np.arange(size + 1)).astype(np.int32),
            ),
            shape=(size, size),
        )

        # Pattern union: linear stamp + node diagonal (gmin and clamps
        # land there) + transistor and capacitor scatter targets.  The
        # diagonal of the *whole* system is included so splu never sees
        # a structurally empty pivot column.
        parts = [
            lin_flat,
            np.arange(size, dtype=np.intp) * (size + 1),
            self._tj_flat,
            self._cj_flat,
        ]
        pattern = np.unique(np.concatenate(parts)).astype(np.intp)
        rows, cols = np.divmod(pattern, size)

        # CSC layouts: entries sorted by (column, row) in the natural
        # column order, which ``assemble(copy=True)`` hands out and the
        # ordering probe reads, and in SuperLU's order ``perm_c``, which
        # the data buffer uses.  ``pattern`` is sorted by flat index =
        # row-major, so the map from a flat dense index to its data slot
        # is one ``searchsorted`` at compile time per stamp array.
        natural = np.lexsort((rows, cols))
        self._natural_indices = rows[natural].astype(np.int32)
        self._natural_indptr = np.searchsorted(
            cols[natural], np.arange(size + 1)
        ).astype(np.int32)
        perm_c = _column_order(self._natural_indices, self._natural_indptr)
        order = np.lexsort((rows, perm_c[cols]))
        slot_of_pattern = np.empty(len(pattern), dtype=np.intp)
        slot_of_pattern[order] = np.arange(len(pattern), dtype=np.intp)
        self._natural_slots = slot_of_pattern[natural]
        self._pattern = pattern
        self._pattern_slots = slot_of_pattern
        slots = self._flat_slots

        ordered = _sparse.csc_matrix(
            (
                np.zeros(len(pattern)),
                rows[order].astype(np.int32),
                np.searchsorted(perm_c[cols[order]], np.arange(size + 1)).astype(np.int32),
            ),
            shape=(size, size),
        )
        self._ordered = ColumnOrderedJacobian(ordered, perm_c)
        self._data = ordered.data  # stamps land in the matrix's own buffer
        base = np.zeros(len(pattern))
        base[slots(lin_flat)] = lin_vals
        self._data_base = base
        self._diag_slots = slots(np.arange(n, dtype=np.intp) * (size + 1))
        self._tj_dst = slots(self._tj_flat)
        self._cj_dst = slots(self._cj_flat)
        self._clamp_slot_cache: tuple | None = None
        self._lin_dense: np.ndarray | None = None

    @property
    def _lin(self) -> np.ndarray:
        """The dense linear stamp, built on first use after each compile.

        Only the stacked batch reads it (its blocks are dense anyway), so
        the compile stays O(nnz).  Bytes-equal to the dense class's
        ``_lin``: a stamp sum that cancels is +0.0 either way.
        """
        if self._lin_dense is None:
            self._lin_dense = self._lin_csr.toarray()
        return self._lin_dense

    def _flat_slots(self, flat_idx: np.ndarray) -> np.ndarray:
        """Map flat dense indices (row*size+col) to CSC data positions."""
        return self._pattern_slots[np.searchsorted(self._pattern, flat_idx)]

    def _clamp_slots(self, clamps: tuple[VoltageClamp, ...]):
        cached = self._clamp_slot_cache
        if cached is not None and cached[0] == clamps:
            return cached[1]
        nodes, _, _ = self._clamp_arrays(clamps)
        # Every node diagonal is in the pattern by construction.
        slots = self._flat_slots(nodes * (self.size + 1))
        self._clamp_slot_cache = (clamps, slots)
        return slots

    def _assemble(
        self,
        x: np.ndarray,
        t: float,
        gmin: float,
        transient: TransientState | None,
        clamps: tuple[VoltageClamp, ...],
        source_scale: float,
        want_jac: bool,
    ):
        if self._topology != self._topology_key():
            self._compile()

        n = self.n_nodes
        f = self._f
        data = self._data

        np.copyto(f, self._lin_csr.dot(x))
        if want_jac:
            np.copyto(data, self._data_base)

        if gmin > 0.0:
            f[:n] += gmin * x[:n]
            if want_jac:
                data[self._diag_slots] += gmin

        if clamps:
            nodes, conductance, target = self._clamp_arrays(clamps)
            if nodes.size:
                np.add.at(f, nodes, conductance * (x[nodes] - target))
                if want_jac:
                    np.add.at(data, self._clamp_slots(clamps), conductance)

        self._stamp_sources(f, t, source_scale)
        if self._t_count:
            self._stamp_transistors(x, f, data, want_jac)
        if transient is not None and len(self._caps):
            self._stamp_capacitors(x, f, data, self._cj_dst, transient, want_jac)

        return f.copy(), (self._ordered if want_jac else None)

    def assemble(self, x, t, gmin=0.0, transient=None, clamps=(),
                 source_scale=1.0, copy=True):
        f, jac = self._assemble(x, t, gmin, transient, clamps, source_scale, True)
        if not copy:
            return f, jac
        size = self.size
        natural = _sparse.csc_matrix(
            (
                self._data[self._natural_slots],
                self._natural_indices.copy(),
                self._natural_indptr.copy(),
            ),
            shape=(size, size),
            copy=False,
        )
        return f, natural


def selects_sparse(
    size: int,
    matrix_format: str = "auto",
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
) -> bool:
    """Whether a system of ``size`` unknowns is assembled sparse.

    ``matrix_format``: ``"sparse"`` always, ``"dense"`` never,
    ``"auto"`` once ``size >= sparse_threshold``.
    """
    if matrix_format not in MATRIX_FORMATS:
        raise ValueError(
            f"matrix_format must be one of {MATRIX_FORMATS}, got {matrix_format!r}"
        )
    return matrix_format == "sparse" or (
        matrix_format == "auto" and size >= sparse_threshold
    )


def make_system(
    circuit: Circuit,
    matrix_format: str = "auto",
    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
    dense_cls: type | None = None,
) -> MnaSystem:
    """Build the MNA assembler :func:`selects_sparse` picks for ``circuit``.

    ``dense_cls`` overrides the dense assembler class — callers pass
    their module-level ``MnaSystem`` binding so monkeypatched reference
    assemblers (benchmarks) keep flowing through this factory; an
    overridden class wins over sparse selection.
    """
    dense_cls = dense_cls or MnaSystem
    sparse = selects_sparse(circuit.unknown_count, matrix_format, sparse_threshold)
    tel = telemetry.active()
    if sparse and dense_cls is MnaSystem:
        if tel is not None:
            tel.count("mna.sparse_selected")
        return SparseMnaSystem(circuit)
    if tel is not None:
        tel.count("mna.dense_selected")
    return dense_cls(circuit)
