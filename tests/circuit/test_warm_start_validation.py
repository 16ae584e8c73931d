"""Warm-start seed validation: cross-circuit seeds fail loudly.

A warm-start vector indexed for a *different* circuit used to be
accepted silently — same length, wrong node order — costing the solver
its warm tier at best and converging to a wrong basin at worst.  Seeds
now carry provenance: ``solve_dc`` accepts an :class:`OperatingPoint`
and checks its circuit fingerprint, and name-keyed guesses reject
unknown nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.dcop import solve_dc
from repro.circuit.netlist import Circuit
from repro.circuit.sweep import dc_sweep
from repro.circuit.transient import simulate_transient


def divider(names=("top", "mid")):
    c = Circuit("divider")
    c.add_voltage_source("vs", names[0], "0", 0.8)
    c.add_resistor(names[0], names[1], 1e4)
    c.add_resistor(names[1], "0", 1e4)
    return c


class TestOperatingPointSeeds:
    def test_same_circuit_instance_accepted(self):
        c = divider()
        op = solve_dc(c)
        warm = solve_dc(c, x0=op)
        np.testing.assert_allclose(warm.x, op.x)

    def test_identical_twin_circuit_accepted(self):
        # The Monte-Carlo idiom: a fresh per-sample build of the same
        # cell.  Same node names, same source count — the seed is
        # meaningful and must be accepted.
        op = solve_dc(divider())
        twin = solve_dc(divider(), x0=op)
        np.testing.assert_allclose(twin.x, op.x, atol=1e-9)

    def test_foreign_circuit_rejected(self):
        op = solve_dc(divider())
        other = divider(names=("rail", "sense"))
        with pytest.raises(ValueError, match="different circuit"):
            solve_dc(other, x0=op)

    def test_raw_vector_wrong_size_rejected(self):
        c = divider()
        with pytest.raises(ValueError):
            solve_dc(c, x0=np.zeros(99))

    def test_raw_vector_right_size_accepted(self):
        c = divider()
        op = solve_dc(c)
        again = solve_dc(c, x0=op.x.copy())
        np.testing.assert_allclose(again.x, op.x)


class TestNamedGuesses:
    def test_transient_guess_with_unknown_node_rejected(self):
        c = divider()
        c.add_capacitor("mid", "0", 1e-15)
        with pytest.raises(ValueError, match="different circuit"):
            simulate_transient(c, 1e-10, operating_point_guess={"q_bar": 0.4})

    def test_solve_dc_guess_with_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="different circuit"):
            solve_dc(divider(), initial_guess={"nope": 0.1})


class TestSweepWarmStarts:
    def test_sweep_still_correct_with_validated_seeds(self):
        c = divider()
        values = np.linspace(0.0, 0.8, 9)
        points = dc_sweep(c, "vs", values)
        mid = np.array([op.voltage("mid") for op in points])
        np.testing.assert_allclose(mid, values / 2.0, atol=1e-7)


class TestNonFiniteInputs:
    """NaN/inf seeds and clamp targets fail where they enter, by name.

    Inside the solver a non-finite node voltage reaches the device-table
    cell lookup as a garbage index (``IndexError``), or, as a clamp
    target, fails every DC fallback tier.
    """

    @pytest.fixture(scope="class")
    def read_bench(self):
        from repro.experiments.designs import proposed_cell

        return proposed_cell().read_testbench(0.8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_initial_guess(self, read_bench, value):
        with pytest.raises(ValueError, match="initial guess for node 'q'"):
            solve_dc(read_bench.circuit, initial_guess={"q": value})

    def test_seed_vector(self, read_bench):
        c = read_bench.circuit
        x0 = np.zeros(c.node_count + len(c.voltage_sources))
        x0[c.index_of("qb")] = np.nan
        with pytest.raises(ValueError, match="seed for node 'qb'"):
            solve_dc(c, x0=x0)

    def test_seed_vector_branch_current(self, read_bench):
        c = read_bench.circuit
        x0 = np.zeros(c.node_count + len(c.voltage_sources))
        x0[-1] = -np.inf
        name = c.voltage_sources[-1].name
        with pytest.raises(ValueError, match=f"voltage source '{name}'"):
            solve_dc(c, x0=x0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_clamp_target(self, read_bench, value):
        with pytest.raises(ValueError, match="clamp target for node 'q'"):
            solve_dc(read_bench.circuit, clamp_nodes={"q": value})

    def test_transient_initial_conditions(self, read_bench):
        with pytest.raises(ValueError, match="node 'q'"):
            simulate_transient(
                read_bench.circuit, 1e-10, initial_conditions={"q": np.nan}
            )

    def test_transient_operating_point_guess(self, read_bench):
        with pytest.raises(ValueError, match="initial guess for node 'qb'"):
            simulate_transient(
                read_bench.circuit, 1e-10, operating_point_guess={"qb": -np.inf}
            )
