"""Fixed-pattern CSC stamping vs. the dense and reference assemblers.

:class:`SparseMnaSystem` must produce the same residual and (densified)
Jacobian as :class:`MnaSystem` and the seed's loop-based
:class:`ReferenceMnaSystem` on randomized netlists — in DC and
transient companion form, with clamps, gmin, and scaled sources active,
and again after live element swaps followed by ``invalidate_caches()``
(the corners/variation reuse idiom).  :func:`make_system` selection is
pinned too: size-based auto choice, forced formats, and the dense
fallback for overridden assembler classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.mna_reference import ReferenceMnaSystem
from repro.circuit.netlist import Circuit
from repro.circuit.parser import parse_netlist
from repro.circuit.sparse import (
    DEFAULT_SPARSE_THRESHOLD,
    SparseMnaSystem,
    make_system,
)
from repro.devices.library import nmos_device, tfet_device
from repro.verify.fuzz import generate_deck

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
