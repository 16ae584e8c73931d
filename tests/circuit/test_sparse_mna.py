"""Fixed-pattern CSC stamping vs. the dense and reference assemblers.

:class:`SparseMnaSystem` must produce the same residual and (densified)
Jacobian as :class:`MnaSystem` and the seed's loop-based
:class:`ReferenceMnaSystem` on randomized netlists — in DC and
transient companion form, with clamps, gmin, and scaled sources active,
and again after live element swaps followed by ``invalidate_caches()``
(the corners/variation reuse idiom).  :func:`make_system` selection is
pinned too: size-based auto choice, forced formats, and the dense
fallback for overridden assembler classes.

The factor path is pinned against plain ``splu(A, permc_spec="COLAMD")``
on the Jacobians compiled array transients factor (same ``L``, ``U``,
``perm_r`` and bytes-equal solves), and its work is pinned too: one
COLAMD ordering per compile, no scipy matrix built per assembly.  The
O(nnz) compile must reproduce the pattern, linear base values and
linear CSR that the dense linear stamp implies.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from scipy import sparse as scipy_sparse
from scipy.sparse.linalg import splu

from repro.circuit import sparse as sparse_module
from repro.circuit.batch import run_generators
from repro.circuit.dcop import SolverOptions
from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.mna_reference import ReferenceMnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.parser import parse_netlist
from repro.circuit.sparse import (
    DEFAULT_SPARSE_THRESHOLD,
    SparseMnaSystem,
    make_system,
)
from repro.circuit.transient import TransientOptions, transient_gen
from repro.circuit.waveforms import Pulse
from repro.devices.library import nmos_device, tfet_device
from repro.experiments.designs import proposed_cell, proposed_read_assist
from repro.sram.array import ArrayGeometry
from repro.sram.compiler import compile_array, measure_array
from repro.telemetry import core as telemetry
from repro.verify.fuzz import generate_deck

from tests.circuit.test_mna import assert_one_mosfet_call_per_fresh_assembly
from tests.circuit.test_mna_equivalence import random_circuit

RTOL = 1e-12
ATOL = 1e-30


def _dense_jac(jac) -> np.ndarray:
    return np.asarray(jac.toarray()) if hasattr(jac, "toarray") else np.asarray(jac)


def assert_all_equivalent(circuit: Circuit, rng: np.random.Generator) -> None:
    sparse = SparseMnaSystem(circuit)
    dense = MnaSystem(circuit)
    ref = ReferenceMnaSystem(circuit)
    assert sparse.size == dense.size == ref.size

    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, dense.size)
        t = float(rng.uniform(0.0, 1e-9))
        gmin = float(rng.choice([0.0, 1e-12, 1e-4]))
        scale = float(rng.choice([1.0, 0.3]))
        clamps = ()
        if rng.random() < 0.5 and circuit.node_count:
            clamps = (
                VoltageClamp(
                    int(rng.integers(0, circuit.node_count)),
                    float(rng.uniform(0.0, 0.8)),
                ),
            )
        state = None
        if len(circuit.capacitors):
            charges = ref.capacitor_charges(rng.uniform(-1.0, 1.0, dense.size))
            state = TransientState(
                timestep=float(rng.uniform(1e-13, 1e-11)),
                capacitor_charges=charges,
                capacitor_currents=rng.uniform(-1e-6, 1e-6, len(charges)),
                method="trapezoidal" if rng.random() < 0.5 else "backward_euler",
            )

        kwargs = dict(
            gmin=gmin, transient=state, clamps=clamps, source_scale=scale
        )
        f_sp, j_sp = sparse.assemble(x, t, **kwargs)
        f_d, j_d = dense.assemble(x, t, **kwargs)
        f_r, j_r = ref.assemble(x, t, **kwargs)
        np.testing.assert_allclose(f_sp, f_d, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(f_sp, f_r, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(_dense_jac(j_sp), j_d, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(_dense_jac(j_sp), j_r, rtol=RTOL, atol=ATOL)


def test_sparse_matches_dense_and_reference_on_random_circuits():
    rng = np.random.default_rng(20260808)
    for _ in range(8):
        assert_all_equivalent(random_circuit(rng), rng)


def test_sparse_matches_on_fuzz_decks():
    rng = np.random.default_rng(11)
    for _ in range(6):
        circuit = parse_netlist(generate_deck(rng))
        assert_all_equivalent(circuit, rng)


def test_sparse_equivalence_survives_live_element_swaps():
    """The variation idiom: mutate devices in place, invalidate, re-check."""
    rng = np.random.default_rng(7)
    circuit = random_circuit(rng)
    sparse = SparseMnaSystem(circuit)
    dense = MnaSystem(circuit)

    # Swap every transistor's model and width in place (new distinct
    # model objects change the grouping), then recompile both systems.
    fresh = [tfet_device(), nmos_device()]
    for i, tr in enumerate(circuit.transistors):
        circuit.transistors[i] = type(tr)(
            tr.drain,
            tr.gate,
            tr.source,
            fresh[i % 2],
            tr.polarity,
            tr.width_um * 1.7,
            tr.name,
        )
    sparse.invalidate_caches()
    dense.invalidate_caches()

    x = rng.uniform(-1.0, 1.0, dense.size)
    f_sp, j_sp = sparse.assemble(x, 0.0, gmin=1e-12)
    f_d, j_d = dense.assemble(x, 0.0, gmin=1e-12)
    np.testing.assert_allclose(f_sp, f_d, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(_dense_jac(j_sp), j_d, rtol=RTOL, atol=ATOL)


def _ladder(n: int) -> Circuit:
    """An RC ladder big enough to cross the auto-sparse threshold."""
    c = Circuit("ladder")
    c.add_voltage_source("vin", "n0", "0", 0.5)
    for k in range(n):
        c.add_resistor(f"n{k}", f"n{k + 1}", 1e3)
    return c


def test_make_system_auto_selection_by_size():
    small = _ladder(4)
    assert type(make_system(small)) is MnaSystem

    big = _ladder(DEFAULT_SPARSE_THRESHOLD + 8)
    assert type(make_system(big)) is SparseMnaSystem

    assert type(make_system(big, matrix_format="dense")) is MnaSystem
    assert type(make_system(small, matrix_format="sparse")) is SparseMnaSystem

    # An overridden dense class (the benchmark monkeypatch path) must
    # win over sparse selection: the caller asked for that assembler.
    assert (
        type(make_system(big, dense_cls=ReferenceMnaSystem))
        is ReferenceMnaSystem
    )

    with pytest.raises(ValueError):
        make_system(small, matrix_format="csr")


def test_sparse_solves_match_dense_end_to_end():
    """solve_dc through both assemblers: same operating point."""
    from repro.circuit.dcop import SolverOptions, solve_dc

    circuit = _ladder(80)
    dense_op = solve_dc(circuit, options=SolverOptions(matrix_format="dense"))
    sparse_op = solve_dc(circuit, options=SolverOptions(matrix_format="sparse"))
    np.testing.assert_allclose(sparse_op.x, dense_op.x, rtol=1e-9, atol=1e-15)


def _compiled(rows: int, scenario: str, columns: int = 32):
    assist = proposed_read_assist() if scenario == "read" else None
    return compile_array(
        proposed_cell(), ArrayGeometry(rows=rows, columns=columns), 0.8,
        scenario=scenario, assist=assist,
    )


def _same_csc(a, b) -> bool:
    return all(
        np.asarray(getattr(a, k)).tobytes() == np.asarray(getattr(b, k)).tobytes()
        for k in ("data", "indices", "indptr")
    )


@pytest.mark.parametrize("scenario", ["read", "write", "half_select"])
def test_factor_path_matches_colamd_splu_on_array_transients(scenario, monkeypatch):
    """Factoring A·Pc in its given order is SuperLU's COLAMD path."""
    captured = []
    init = sparse_module.SparseFactorization.__init__

    def capture(self, jac):
        init(self, jac)
        matrix, perm_c = jac
        captured.append((matrix[:, perm_c], perm_c, self))  # A = (A·Pc)·Pcᵀ

    monkeypatch.setattr(sparse_module.SparseFactorization, "__init__", capture)
    compiled = _compiled(64, scenario)
    assert compiled.unknown_count >= DEFAULT_SPARSE_THRESHOLD
    measure_array(compiled)
    assert len(captured) > 500

    rng = np.random.default_rng(5)
    for natural, perm_c, factor in captured:
        reference = splu(natural, permc_spec="COLAMD")
        assert np.array_equal(reference.perm_c, perm_c)
        assert np.array_equal(reference.perm_r, factor._lu.perm_r)
        assert _same_csc(reference.L, factor._lu.L)
        assert _same_csc(reference.U, factor._lu.U)
        rhs = rng.standard_normal(natural.shape[0])
        assert reference.solve(rhs).tobytes() == factor.solve(rhs).tobytes()


class _CountingSparse(types.SimpleNamespace):
    """Stands in for ``scipy.sparse`` inside the sparse module."""

    def __init__(self):
        super().__init__(built=0)

    def csc_matrix(self, *args, **kwargs):
        self.built += 1
        return scipy_sparse.csc_matrix(*args, **kwargs)

    def csr_matrix(self, *args, **kwargs):
        self.built += 1
        return scipy_sparse.csr_matrix(*args, **kwargs)


def test_ordering_once_per_compile_and_no_matrix_per_assembly(monkeypatch):
    orderings = []

    def counting_splu(matrix, permc_spec=None):
        orderings.append(permc_spec)
        return splu(matrix, permc_spec=permc_spec)

    counting = _CountingSparse()
    monkeypatch.setattr(sparse_module, "_splu", counting_splu)
    monkeypatch.setattr(sparse_module, "_sparse", counting)

    circuit = _compiled(16, "read", columns=4).bench.circuit
    system = SparseMnaSystem(circuit)
    built = counting.built
    assert orderings == ["COLAMD"]

    rng = np.random.default_rng(3)
    jacobians = []
    for _ in range(4):
        x = rng.uniform(0.0, 0.8, system.size)
        jacobians.append(system.assemble(x, 1e-10, gmin=1e-12, copy=False)[1])
        system.assemble_residual(x, 1e-10)
    assert all(jac is jacobians[0] for jac in jacobians)
    assert jacobians[0].matrix.data is system._data
    assert counting.built == built

    system.invalidate_caches()
    assert orderings == ["COLAMD", "COLAMD"]

    # A whole transient: one compile, every factorization NATURAL.
    del orderings[:]
    with telemetry.enabled() as tel:
        measure_array(_compiled(16, "read", columns=4))
    stamps = tel.counters["newton.jacobian_stamps"]
    assert stamps > 100
    assert orderings.count("COLAMD") == 1
    assert orderings.count("NATURAL") == stamps


@pytest.mark.parametrize("scenario", ["read", "write"])
def test_compiled_array_makes_one_mosfet_call_per_assembly(scenario, monkeypatch):
    """The array's nMOS and pMOS periphery: one stacked EKV call per
    fresh sparse assembly, stamps bytes-equal to per-card calls."""
    system = SparseMnaSystem(_compiled(16, scenario, columns=4).bench.circuit)
    assert_one_mosfet_call_per_fresh_assembly(system, monkeypatch)


def _dense_reference_layout(circuit: Circuit):
    """Pattern, linear values and linear CSR implied by the dense stamp."""
    dense = MnaSystem(circuit)
    size = dense.size
    lin_flat = np.flatnonzero(dense._lin)
    pattern = np.unique(np.concatenate([
        lin_flat,
        np.arange(size, dtype=np.intp) * (size + 1),
        dense._tj_flat,
        dense._cj_flat,
    ]))
    return pattern, lin_flat, dense._lin.reshape(-1)[lin_flat], scipy_sparse.csr_matrix(dense._lin)


def _assert_compile_matches_dense(circuit: Circuit) -> None:
    sparse = SparseMnaSystem(circuit)
    pattern, lin_flat, lin_vals, lin_csr = _dense_reference_layout(circuit)
    assert np.array_equal(sparse._pattern, pattern)
    assert sparse._data_base[sparse._flat_slots(lin_flat)].tobytes() == lin_vals.tobytes()
    others = np.setdiff1d(pattern, lin_flat)
    assert not sparse._data_base[sparse._flat_slots(others)].any()
    assert _same_csc(sparse._lin_csr, lin_csr)
    # No size x size buffer: neither the dense stamp nor a Jacobian scratch.
    assert all(
        np.size(value) < sparse.size**2 for value in vars(sparse).values()
        if isinstance(value, np.ndarray)
    )
    assert not hasattr(sparse, "_jac")


@pytest.mark.parametrize("rows, scenario", [(16, "read"), (16, "write"), (64, "read")])
def test_sparse_compile_matches_dense_stamp_on_compiled_paths(rows, scenario):
    _assert_compile_matches_dense(_compiled(rows, scenario, columns=4).bench.circuit)


def test_sparse_compile_matches_dense_stamp_on_fuzz_decks():
    rng = np.random.default_rng(23)
    for _ in range(12):
        _assert_compile_matches_dense(parse_netlist(generate_deck(rng)))
    rng = np.random.default_rng(24)
    for _ in range(4):
        _assert_compile_matches_dense(random_circuit(rng))


def test_stacked_batch_of_sparse_systems_matches_dense_batch():
    """The stacked batch reads a sparse system's linear stamp densified."""
    def ladder(r: float) -> Circuit:
        c = Circuit("rc ladder")
        c.add_voltage_source(
            "vin", "n0", "0", Pulse(0.0, 0.5, t_start=2e-11, width=1e-10, t_edge=1e-11)
        )
        n = DEFAULT_SPARSE_THRESHOLD + 4
        for k in range(n):
            c.add_resistor(f"n{k}", f"n{k + 1}", r * (1 + k % 3))
            c.add_capacitor(f"n{k + 1}", "0", 1e-15 * (1 + k % 2))
        c.add_transistor("mn", f"n{n}", "n0", "0", tfet_device(), polarity="n", width_um=0.1)
        return c

    def batch(matrix_format: str):
        options = TransientOptions(solver=SolverOptions(matrix_format=matrix_format))
        return run_generators([
            transient_gen(ladder(r), 2e-10, options=options)
            for r in (1e3, 2.5e3)
        ])

    with telemetry.enabled() as tel:
        sparse = batch("auto")
    assert tel.counters["mna.sparse_selected"] == 2
    dense = batch("dense")
    for s, d in zip(sparse, dense):
        assert s.status == d.status == "ok"
        assert s.value.times.tobytes() == d.value.times.tobytes()
        assert s.value.states.tobytes() == d.value.states.tobytes()
