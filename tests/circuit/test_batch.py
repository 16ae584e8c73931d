"""Stacked-batch Newton must be bit-identical to the scalar solvers.

``solve_dc`` / ``simulate_transient`` drive the same generators
(``solve_dc_gen`` / ``transient_gen``) one at a time on each system's
own assembler; :func:`run_generators` drives K of them with the stacked
assembler.  A batch of K variants must therefore reproduce the scalar
waveforms *exactly* (``tobytes`` equality), not merely to tolerance —
this pins the stacked assembler against the scalar one (the control
flow itself is pinned by ``test_solver_golden.py``).  Error isolation
and the shared-topology precondition are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.batch import run_generators
from repro.circuit.dcop import solve_dc, solve_dc_gen
from repro.circuit.netlist import Circuit
from repro.circuit.transient import simulate_transient, transient_gen
from repro.circuit.waveforms import Pulse
from repro.devices.charges import ChargeFunction, SmoothStepCharge
from repro.devices.library import tfet_device
from repro.telemetry import core as telemetry

T_STOP = 2e-9


def _inverter(width_n: float, cload: float) -> Circuit:
    """A loaded TFET inverter — small, nonlinear, fast to integrate."""
    c = Circuit("inv")
    model = tfet_device()
    c.add_voltage_source("vdd", "vdd", "0", 0.8)
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 0.8, t_start=2e-10, width=1e-9, t_edge=5e-11)
    )
    c.add_transistor("mp", "out", "in", "vdd", model, polarity="p", width_um=0.2)
    c.add_transistor("mn", "out", "in", "0", model, polarity="n", width_um=width_n)
    c.add_capacitor("out", "0", SmoothStepCharge(1e-16, 5e-16, 0.4, 0.08))
    c.add_capacitor("out", "0", cload)
    c.add_resistor("out", "0", 1e8)
    return c


VARIANTS = [(0.1, 1e-16), (0.14, 2e-16), (0.2, 5e-17), (0.08, 3e-16)]


def test_batched_transient_bit_identical_to_scalar():
    scalar = [simulate_transient(_inverter(*v), T_STOP) for v in VARIANTS]

    gens = [transient_gen(_inverter(*v), T_STOP) for v in VARIANTS]
    with telemetry.enabled() as tel:
        outcomes = run_generators(gens)
        counters = dict(tel.counters)

    assert [o.status for o in outcomes] == ["ok"] * len(VARIANTS)
    for ref, outcome in zip(scalar, outcomes):
        result = outcome.value
        assert result.times.tobytes() == ref.times.tobytes()
        assert result.states.tobytes() == ref.states.tobytes()
    assert counters["batch.runs"] == 1
    assert counters["batch.members"] == len(VARIANTS)
    assert counters["batch.ticks"] >= 1
    # One stacked assembly per member per tick, minus early finishers.
    assert counters["batch.member_assemblies"] <= (
        counters["batch.ticks"] * len(VARIANTS)
    )


def test_batched_dc_bit_identical_to_scalar():
    outcomes = run_generators([solve_dc_gen(_inverter(*v)) for v in VARIANTS])
    for v, outcome in zip(VARIANTS, outcomes):
        assert outcome.status == "ok"
        ref = solve_dc(_inverter(*v))
        assert outcome.value.x.tobytes() == ref.x.tobytes()


def test_member_error_is_isolated():
    """One failing member must not disturb the survivors' results."""

    def exploding():
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator

    outcomes = run_generators(
        [transient_gen(_inverter(*VARIANTS[0]), T_STOP), exploding()]
    )
    assert outcomes[0].status == "ok"
    assert outcomes[1].status == "error"
    assert isinstance(outcomes[1].error, RuntimeError)

    ref = simulate_transient(_inverter(*VARIANTS[0]), T_STOP)
    assert outcomes[0].value.states.tobytes() == ref.states.tobytes()


def test_generator_returning_before_first_yield_is_ok():
    def immediate():
        return 42
        yield  # pragma: no cover - makes this a generator

    outcomes = run_generators([immediate()])
    assert outcomes[0].status == "ok"
    assert outcomes[0].value == 42


def test_mixed_topology_members_rejected():
    small = _inverter(*VARIANTS[0])
    big = _inverter(*VARIANTS[1])
    big.add_resistor("out", "extra", 1e6)
    big.add_capacitor("extra", "0", 1e-16)

    with pytest.raises(ValueError, match="share one topology"):
        run_generators([transient_gen(small, T_STOP), transient_gen(big, T_STOP)])


# -- block stamps ---------------------------------------------------------------
#
# Each stacked tick stamps the whole (K, size) block with a fixed number of
# numpy calls per stamp kind.  The cases below put members that take every
# branch of the scalar assembler into the same ticks and require bytes-equal
# results against the scalar solvers.


def test_stacked_matmul_is_the_scalar_gemv():
    """The linear stamp's one stacked matmul equals K scalar mat-vecs."""
    rng = np.random.default_rng(20)
    for size in (8, 10, 13, 16, 24):
        shape = (10, size, size)
        lin = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        x = rng.standard_normal((10, size)) * 10.0 ** rng.integers(-3, 3, (10, size))
        f = np.empty((10, size))
        np.matmul(lin, x[:, :, None], out=f[:, :, None])
        scalar = np.array([np.matmul(a, b) for a, b in zip(lin, x)])
        assert f.tobytes() == scalar.tobytes()


def _meshed_inverter(seed: int) -> Circuit:
    """`_inverter` with its nodes and eight more fully meshed by random
    resistors: linear-stamp rows with many non-zeros, whose sums depend
    on the order the mat-vec adds them in."""
    rng = np.random.default_rng(seed)
    c = _inverter(0.1, 1e-16)
    nodes = ["vdd", "in", "out"] + [f"m{k}" for k in range(8)]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            c.add_resistor(a, b, float(10.0 ** rng.uniform(5, 9)))
    for k in range(8):
        c.add_capacitor(f"m{k}", "0", 1e-16)
    return c


def test_dense_linear_stamp_bit_identical():
    outcomes = run_generators([transient_gen(_meshed_inverter(s), T_STOP) for s in range(3)])
    for seed, outcome in enumerate(outcomes):
        ref = simulate_transient(_meshed_inverter(seed), T_STOP)
        assert outcome.value.states.tobytes() == ref.states.tobytes()


def _read_bench(beta: float):
    from repro.sram import AccessConfig, CellSizing, Tfet6TCell

    cell = Tfet6TCell(CellSizing().with_beta(beta), AccessConfig.INWARD_P)
    return cell.read_testbench(0.8)


BETAS = (0.4, 0.6, 1.0, 2.0)


def test_beta_sweep_batches_with_per_member_capacitor_scale():
    """Widths scale the device capacitors; a beta sweep is one batch."""
    from repro.analysis.stability import SETTLE_TIME

    benches = [_read_bench(beta) for beta in BETAS]
    outcomes = run_generators([
        transient_gen(
            b.circuit, b.settle_stop(SETTLE_TIME), initial_conditions=b.initial_conditions
        )
        for b in benches
    ])
    for beta, outcome in zip(BETAS, outcomes):
        bench = _read_bench(beta)
        ref = simulate_transient(
            bench.circuit, bench.settle_stop(SETTLE_TIME),
            initial_conditions=bench.initial_conditions,
        )
        assert outcome.status == "ok"
        assert outcome.value.times.tobytes() == ref.times.tobytes()
        assert outcome.value.states.tobytes() == ref.states.tobytes()

    outcomes = run_generators([
        solve_dc_gen(b.circuit, clamp_nodes=b.initial_conditions) for b in benches
    ])
    for beta, outcome in zip(BETAS, outcomes):
        bench = _read_bench(beta)
        ref = solve_dc(bench.circuit, clamp_nodes=bench.initial_conditions)
        assert outcome.value.x.tobytes() == ref.x.tobytes()


def _mixed_inverter(
    title: str, width_n: float, cmos: bool = False, leak: float = 1e-9
) -> Circuit:
    """`_inverter` plus a current source; optionally with MOSFETs."""
    from repro.circuit.waveforms import Constant
    from repro.devices.library import nmos_device, pmos_device

    c = Circuit(title)
    n_model = nmos_device() if cmos else tfet_device()
    p_model = pmos_device() if cmos else tfet_device()
    c.add_voltage_source("vdd", "vdd", "0", 0.8)
    c.add_voltage_source(
        "vin", "in", "0", Pulse(0.0, 0.8, t_start=2e-10, width=1e-9, t_edge=5e-11)
    )
    c.add_current_source(
        "ileak", "out", "0",
        Pulse(0.0, leak, t_start=4e-10, width=5e-10, t_edge=5e-11) if leak else Constant(0.0),
    )
    c.add_transistor("mp", "out", "in", "vdd", p_model, polarity="p", width_um=0.2)
    c.add_transistor("mn", "out", "in", "0", n_model, polarity="n", width_um=width_n)
    c.add_capacitor("out", "0", SmoothStepCharge(1e-16, 5e-16, 0.4, 0.08))
    c.add_capacitor("out", "0", 2e-16)
    c.add_resistor("out", "0", 1e8)
    return c


def _mixed_members():
    """Generators of one batch: transient members with clamps, trapezoidal,
    a CMOS device pair and an early finish, beside DC members with gmin
    stepping and with gmin = 0.  The TFET members without a warm start
    reach source stepping, so source scales differ too."""
    from repro.circuit.dcop import SolverOptions
    from repro.circuit.transient import TransientOptions

    return [
        transient_gen(_mixed_inverter("be", 0.1), T_STOP, initial_conditions={"out": 0.8}),
        transient_gen(
            _mixed_inverter("trap", 0.14, leak=3e-9), T_STOP / 2,
            options=TransientOptions(method="trapezoidal"),
        ),
        transient_gen(_mixed_inverter("cmos", 0.2, cmos=True), T_STOP),
        solve_dc_gen(_mixed_inverter("stepped", 0.08, cmos=True, leak=0.0)),
        solve_dc_gen(
            _mixed_inverter("no-gmin", 0.12), initial_guess={"out": 0.5},
            options=SolverOptions(gmin=0.0),
        ),
    ]


def _scalar(gen):
    from repro.circuit.dcop import drive

    return drive(gen)


@pytest.fixture
def gmin_stepping(monkeypatch):
    """A circuit titled ``stepped`` fails every plain Newton solve until
    its DC ladder has reached gmin stepping (requests with extra gmin)."""
    import repro.circuit.dcop as dcop
    from repro.circuit.dcop import ConvergenceError

    real = dcop.newton_gen
    stepping: set[int] = set()

    def gated(system, *args, extra_gmin=0.0, **kwargs):
        circuit = system.circuit
        if circuit.title == "stepped":
            if extra_gmin > 0.0:
                stepping.add(id(circuit))
            elif id(circuit) not in stepping:
                raise ConvergenceError("forced failure before gmin stepping")
        return (yield from real(system, *args, extra_gmin=extra_gmin, **kwargs))

    monkeypatch.setattr(dcop, "newton_gen", gated)


def test_mixed_members_in_one_batch_bit_identical(gmin_stepping):
    with telemetry.enabled() as tel:
        outcomes = run_generators(_mixed_members())
        counters = dict(tel.counters)
    assert counters["dcop.converged.gmin_stepping"] == 1
    assert counters["dcop.converged.source_stepping"] >= 1
    assert counters["batch.ticks"] < counters["batch.member_assemblies"]

    for outcome, gen in zip(outcomes, _mixed_members()):
        assert outcome.status == "ok"
        ref = _scalar(gen)
        if hasattr(ref, "states"):
            assert outcome.value.times.tobytes() == ref.times.tobytes()
            assert outcome.value.states.tobytes() == ref.states.tobytes()
        else:
            assert outcome.value.x.tobytes() == ref.x.tobytes()


def test_members_sharing_one_system_sample_their_own_times():
    """Members may share one system; each must be stamped with the
    sources at its own time, though they sample through one cache."""
    from repro.circuit.mna import MnaSystem

    circuit = _mixed_inverter("shared", 0.14, leak=3e-9)
    system = MnaSystem(circuit)
    times = (0.0, 6e-10, 3e-10)
    outcomes = run_generators([solve_dc_gen(circuit, t=t, system=system) for t in times])
    refs = [solve_dc(_mixed_inverter("shared", 0.14, leak=3e-9), t=t) for t in times]
    assert len({ref.x.tobytes() for ref in refs}) == len(times)
    for outcome, ref in zip(outcomes, refs):
        assert outcome.status == "ok"
        assert outcome.value.x.tobytes() == ref.x.tobytes()


def test_linear_capacitor_bank_mixed_methods_bit_identical():
    """The all-linear bank takes its own charge expression; trapezoidal
    and backward-Euler members share ticks."""
    from repro.circuit.transient import TransientOptions

    def circuit(width_n, cap):
        c = Circuit("linear")
        c.add_voltage_source("vdd", "vdd", "0", 0.8)
        c.add_voltage_source(
            "vin", "in", "0", Pulse(0.0, 0.8, t_start=2e-10, width=1e-9, t_edge=5e-11)
        )
        c.add_transistor("mp", "out", "in", "vdd", tfet_device(), polarity="p", width_um=0.2)
        c.add_transistor("mn", "out", "in", "0", tfet_device(1.02), polarity="n", width_um=width_n)
        c.add_capacitor("out", "0", cap)
        c.add_capacitor("in", "out", cap / 3)
        c.add_resistor("out", "0", 1e8)
        return c

    members = [
        (0.1, 1e-16, "trapezoidal"), (0.2, 2e-16, "backward_euler"), (0.15, 3e-16, "trapezoidal")
    ]
    outcomes = run_generators([
        transient_gen(circuit(w, cap), T_STOP, options=TransientOptions(method=method))
        for w, cap, method in members
    ])
    for (w, cap, method), outcome in zip(members, outcomes):
        ref = simulate_transient(
            circuit(w, cap), T_STOP, options=TransientOptions(method=method)
        )
        assert outcome.value.times.tobytes() == ref.times.tobytes()
        assert outcome.value.states.tobytes() == ref.states.tobytes()


@pytest.mark.parametrize("design", ["proposed", "cmos"])
def test_batched_wlcrit_search_matches_scalar(design):
    """Resume and latch inside a stacked batch: same values, same probes.

    The two members differ in supply and, for the CMOS cell, in beta."""
    from repro.analysis.stability import WlCritSearch
    from repro.char.designs import build_cell

    points = [(0.8, None), (0.7, 1.2 if design == "cmos" else None)]

    def factory(vdd, beta):
        return build_cell(design, beta=beta)[0].write_bench_factory(vdd)

    searches = [WlCritSearch(upper_bound=2e-9) for _ in points]
    with telemetry.enabled() as tel:
        outcomes = run_generators(
            [s.search_gen(factory(*p)) for s, p in zip(searches, points)]
        )
        counters = dict(tel.counters)
    assert counters["wlcrit.steps_resumed"] > 0
    assert counters["wlcrit.probes_latched"] > 0

    for point, outcome, batched in zip(points, outcomes, searches):
        scalar = WlCritSearch(upper_bound=2e-9)
        assert outcome.status == "ok"
        assert outcome.value == scalar.search(factory(*point))
        assert batched.decisions == scalar.decisions


def test_batched_wlcrit_searches_keep_one_member_plan_each(monkeypatch):
    """A search runs every probe on one system, so a batch member's
    stamping plan is built once for the whole search."""
    from repro.analysis.stability import WlCritSearch
    from repro.char.designs import build_cell
    from repro.circuit import batch

    planned = []
    real_init = batch._MemberPlan.__init__

    def counting_init(self, system, registry):
        planned.append(system)
        real_init(self, system, registry)

    monkeypatch.setattr(batch._MemberPlan, "__init__", counting_init)
    vdds = (0.7, 0.75, 0.8, 0.85)
    searches = [WlCritSearch(upper_bound=2e-9) for _ in vdds]
    outcomes = run_generators([
        s.search_gen(build_cell("proposed")[0].write_bench_factory(vdd))
        for s, vdd in zip(searches, vdds)
    ])
    assert [o.status for o in outcomes] == ["ok"] * 4
    assert all(len(s.decisions) > 2 for s in searches)
    assert len(planned) == 4
    assert len({id(system) for system in planned}) == 4


def test_batched_cmos_searches_make_one_mosfet_call_per_stale_tick(monkeypatch):
    """Every stale member's MOSFET devices, whatever their card, go
    through one stacked EKV call per tick, with fewer stale rows too;
    the values stay the scalar searches'."""
    from repro.analysis.stability import WlCritSearch
    from repro.char.designs import build_cell
    from repro.circuit import batch
    from tests.circuit.test_mna import count_mosfet_calls

    points = [(0.6, 1.0), (0.7, 1.3), (0.8, 1.6)]

    def factory(vdd, beta):
        return build_cell("cmos", beta=beta)[0].write_bench_factory(vdd)

    calls = count_mosfet_calls(monkeypatch)
    ticks = []  # (stale rows, active rows, MOSFET calls)
    real_stamp = batch._stamp_devices_batch

    def recording_stamp(layout, registry, tel):
        n = layout.n
        fresh = layout.T_VALID & (layout.X[:, :n] == layout.T_X).all(axis=1)
        before = len(calls)
        real_stamp(layout, registry, tel)
        ticks.append((int((~fresh).sum()), layout.K, len(calls) - before))

    monkeypatch.setattr(batch, "_stamp_devices_batch", recording_stamp)
    searches = [WlCritSearch(upper_bound=2e-9) for _ in points]
    outcomes = run_generators([s.search_gen(factory(*p)) for s, p in zip(searches, points)])
    monkeypatch.undo()

    assert all(made == (1 if stale else 0) for stale, _, made in ticks)
    assert any(0 < stale < k for stale, k, _ in ticks)  # partial ticks ran
    for point, outcome, batched in zip(points, outcomes, searches):
        scalar = WlCritSearch(upper_bound=2e-9)
        assert outcome.status == "ok"
        assert outcome.value == scalar.search(factory(*point))
        assert batched.decisions == scalar.decisions


def test_member_with_another_device_model_raises():
    """Only table-backed and MOSFET models stack; any other model is
    refused rather than stamped as zeros."""

    class Ohmic:
        def evaluate_density(self, vgs, vds):
            return 1e-4 * vds, np.zeros_like(vgs), np.full_like(vds, 1e-4)

    c = Circuit("ohmic")
    c.add_voltage_source("vdd", "a", "0", 0.8)
    c.add_transistor("m1", "a", "a", "b", Ohmic(), "n", 1.0)
    c.add_resistor("b", "0", 1e4)
    assert solve_dc(c).voltage("b") > 0.0  # the scalar path takes any model
    with pytest.raises(TypeError, match="Ohmic"):
        run_generators([solve_dc_gen(c)])


class _QuadraticCharge(ChargeFunction):
    """``q = c0 v + k v^2 / 2``: neither linear nor a logistic step, so
    every assembler stamps it through the per-element fallback."""

    def __init__(self, c0: float, k: float):
        self.c0, self.k = c0, k

    def charge(self, v):
        return self.c0 * v + 0.5 * self.k * v * v

    def capacitance(self, v):
        return self.c0 + self.k * v


def _ladder(resistance: float, stages: int = 68) -> Circuit:
    """A pulsed RC ladder with fallback capacitors, above the sparse
    threshold."""
    c = Circuit("ladder")
    c.add_voltage_source(
        "vin", "n0", "0", Pulse(0.0, 0.8, t_start=1e-11, width=1e-10, t_edge=1e-11)
    )
    for k in range(stages):
        c.add_resistor(f"n{k}", f"n{k + 1}", resistance)
        c.add_capacitor(f"n{k + 1}", "0", _QuadraticCharge(1e-16, 5e-17))
    return c


def test_sparse_members_with_fallback_capacitors_match_the_dense_batch():
    """A sparse member's fallback capacitors stamp the batch's dense
    block at dense indices, not at the member's CSC data slots."""
    from repro.circuit.dcop import SolverOptions
    from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD
    from repro.circuit.transient import TransientOptions

    resistances = (1e3, 2e3)
    assert _ladder(1e3).unknown_count >= DEFAULT_SPARSE_THRESHOLD

    def batch(matrix_format):
        options = TransientOptions(solver=SolverOptions(matrix_format=matrix_format))
        return run_generators(
            [transient_gen(_ladder(r), 3e-10, options=options) for r in resistances]
        )

    with telemetry.enabled() as tel:
        auto = batch("auto")
    assert tel.counters["mna.sparse_selected"] == len(resistances)
    dense = batch("dense")
    for a, d in zip(auto, dense):
        assert a.status == d.status == "ok", a.error
        assert a.value.times.tobytes() == d.value.times.tobytes()
        assert a.value.states.tobytes() == d.value.states.tobytes()


def test_batched_steps_leave_capacitor_values_in_the_cache(monkeypatch):
    """The integrator's post-step capacitor queries are cache hits on
    the batched stamp's values: the only bank evaluations of a batched
    transient are its members' t = 0 charges."""
    from repro.circuit.mna import _CapacitorBank

    members = VARIANTS[:2]
    evaluated = []
    original = _CapacitorBank.charges_and_caps

    def counted(bank, v):
        evaluated.append(v.copy())
        return original(bank, v)

    monkeypatch.setattr(_CapacitorBank, "charges_and_caps", counted)
    outcomes = run_generators([transient_gen(_inverter(*v), T_STOP) for v in members])
    monkeypatch.undo()

    assert [o.status for o in outcomes] == ["ok"] * len(members)
    t0_voltages = set()
    for v, outcome in zip(members, outcomes):
        ref = simulate_transient(_inverter(*v), T_STOP)
        assert outcome.value.times.tobytes() == ref.times.tobytes()
        assert outcome.value.states.tobytes() == ref.states.tobytes()
        out = outcome.value.circuit.index_of("out")
        # Both capacitors sit between out and ground: v(out) at t = 0.
        t0_voltages.add(np.full(2, ref.states[0, out]).tobytes())
    # Members finish their DC solves in any order.
    assert sorted(v.tobytes() for v in evaluated) == sorted(t0_voltages)
