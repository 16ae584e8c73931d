"""Dynamic cell-stability metrics: DRNM and WL_crit.

Following the paper's Section 3, stability is measured *dynamically*:

* **DRNM** (dynamic read noise margin, after Dehaene et al.): the
  minimum voltage difference between q and qb during a read access.  A
  non-positive DRNM means the read flipped the cell.
* **WL_crit** (after Wang et al.): the minimum wordline pulse width
  that flips the cell during a write.  An unwritable cell has infinite
  WL_crit.

Both capture the dynamics that static margins miss — a slow cell can
survive a disturb that would kill it at DC, and a write can fail even
when the static margin says otherwise.

Both transients end once their value is decided: DRNM at the first
sample at or past the end of the access window (the minimum is taken
inside it), a WL_crit probe once the cell has latched.  Neither changes
a value: :func:`repro.circuit.transient.full_length` and
:class:`ReferenceWlCritSearch` are the full-length references.
"""

from __future__ import annotations

import math

from repro.circuit.dcop import ConvergenceError, drive
from repro.circuit.transient import (
    IntegratorState,
    TransientOptions,
    accepted_step_gen,
    shared_steps,
    simulate_transient,
    step_breakpoints,
    transient_gen,
    transient_start_gen,
)
from repro.sram.assist import Assist
from repro.sram.testbench import Testbench
from repro.telemetry import core as telemetry

__all__ = [
    "drnm_gen",
    "dynamic_read_noise_margin",
    "write_flips_cell",
    "critical_wordline_pulse",
    "LATCH_FRACTION",
    "ReferenceWlCritSearch",
    "WlCritSearch",
]

SETTLE_TIME = 1.0e-9
"""Post-access settling time before declaring the final state."""

FLIP_MARGIN = 0.0
"""v(one) - v(zero) below this at the end of settling counts as flipped."""

LATCH_FRACTION = 0.7
"""A WL_crit probe past its last breakpoint ends once the storage nodes
are this fraction of their initial separation apart: with every source
constant the regenerative pair only widens from there, so the sign of
v(one) - v(zero) is the probe's outcome."""


def drnm_gen(bench: Testbench, options: TransientOptions | None = None):
    """Generator form of :func:`dynamic_read_noise_margin`, the one DRNM
    procedure: the scalar call drives it, and so does a stacked
    Monte-Carlo batch member (:mod:`repro.engine.mc`).

    The transient is set up to end :data:`SETTLE_TIME` after the access
    window, but stops at the first sample at or after ``window.t_off``:
    every sample the minimum reads is in by then.
    """
    if bench.read_bitline is None:
        raise ValueError("testbench is not a read operation")
    t_on, t_off = bench.window.t_on, bench.window.t_off
    result = yield from transient_gen(
        bench.circuit,
        bench.settle_stop(SETTLE_TIME),
        initial_conditions=bench.initial_conditions,
        options=options,
        until=lambda t, x: t >= t_off,
    )
    return result.min_difference(bench.one_node, bench.zero_node, t_on, t_off)


def dynamic_read_noise_margin(
    bench: Testbench, options: TransientOptions | None = None
) -> float:
    """DRNM in volts for a read testbench.

    Simulates through the access window and returns the minimum
    separation of the storage nodes inside it.  The transient is not a
    ``transient`` telemetry span of its own; its counters are recorded.
    """
    return drive(drnm_gen(bench, options))


def _flipped(bench: Testbench, result) -> bool:
    """Whether a write transient ended with the cell state flipped."""
    return result.final(bench.one_node) - result.final(bench.zero_node) < FLIP_MARGIN


def write_flips_cell(
    bench: Testbench, options: TransientOptions | None = None
) -> bool:
    """Whether a write testbench ends with the cell state flipped."""
    result = simulate_transient(
        bench.circuit,
        bench.settle_stop(SETTLE_TIME),
        initial_conditions=bench.initial_conditions,
        options=options,
    )
    return _flipped(bench, result)


class WlCritSearch:
    """Bisection for the critical wordline pulse width.

    ``upper_bound`` is the widest pulse tried; if even that pulse fails
    to flip the cell the write is declared impossible and the search
    returns ``math.inf`` — the paper's "infinite WL_crit".

    ``bench_factory(pulse_width)`` must return benches on one circuit
    that differ only in the pulse width: every source waveform of two
    widths agrees up to the first breakpoint the two benches do not
    share (the contract of
    :meth:`repro.sram.base.SixTCellBase.write_bench_factory`).  Each
    probe then integrates only what no earlier probe of the same search
    has integrated, and only until its outcome is latched:

    * The t = 0 operating point is the same for every width, so the
      search builds one system and solves that point once, on the
      first probe: cold, then warm from its own solution, the fixed
      point a warm solve returns bit for bit.  Every probe starts from
      that state (:attr:`start`) on that system.
    * A probe takes over an earlier probe's accepted steps up to the
      first step the step control would take differently
      (:func:`repro.circuit.transient.shared_steps`), from the stored
      probe that reaches furthest.
    * A probe ends once all its sources are constant (it is past its
      last breakpoint) and the storage nodes are :data:`LATCH_FRACTION`
      of their initial separation apart; that sign is its outcome.

    An operating point that does not converge makes the first probe a
    non-flip, so the search returns ``math.inf``.

    :attr:`decisions` lists the last search's probes as ``(width,
    flipped)`` pairs, in order.  :class:`ReferenceWlCritSearch` keeps
    the full-length probe.
    """

    def __init__(
        self,
        lower_bound: float = 1.0e-12,
        upper_bound: float = 4.0e-9,
        relative_tolerance: float = 0.02,
        options: TransientOptions | None = None,
    ):
        if not 0.0 < lower_bound < upper_bound:
            raise ValueError("need 0 < lower_bound < upper_bound")
        if relative_tolerance <= 0.0:
            raise ValueError("relative tolerance must be positive")
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.relative_tolerance = relative_tolerance
        self.options = options
        self.decisions: list[tuple[float, bool]] = []
        self.start: IntegratorState | None = None
        """The last search's t = 0 state (None before its first probe
        solved it)."""
        self._system = None
        self._probes: list[tuple[list[float], list[IntegratorState]]] = []

    def _start_gen(self, bench: Testbench, options: TransientOptions):
        """Build the search's system and solve its start state: cold,
        then warm from the cold solution's node voltages."""
        circuit = bench.circuit
        system, cold = yield from transient_start_gen(
            circuit, bench.initial_conditions, options
        )
        guess = dict(zip(circuit.node_names, (float(v) for v in cold.x)))
        _, self.start = yield from transient_start_gen(
            circuit, bench.initial_conditions, options, guess, system
        )
        self._system = system

    def _resume(self, breakpoints, options) -> list[IntegratorState]:
        """The longest stored trajectory prefix this probe would compute
        itself from the start state, or just ``[start]``."""
        best = [self.start]
        for stored_breaks, trajectory in self._probes:
            n = shared_steps(trajectory, stored_breaks, breakpoints, options)
            if trajectory[n].t > best[-1].t:
                best = trajectory[: n + 1]
        return best

    def _flips_gen(self, bench_factory, width: float):
        bench = bench_factory(width)
        circuit = bench.circuit
        t_stop = bench.settle_stop(SETTLE_TIME)
        options = self.options or TransientOptions()
        tel = telemetry.active()
        one = circuit.index_of(bench.one_node)
        zero = circuit.index_of(bench.zero_node)
        try:
            if self._system is None:
                yield from self._start_gen(bench, options)
            elif self._system.circuit is not circuit:
                raise ValueError(
                    "a WL_crit bench factory must return benches on one circuit "
                    "(see SixTCellBase.write_bench_factory)"
                )
            system, start = self._system, self.start
            breakpoints = step_breakpoints(circuit, t_stop)
            trajectory = self._resume(breakpoints, options)
            self._probes.append((breakpoints, trajectory))
            if tel is not None and len(trajectory) > 1:
                tel.count("wlcrit.steps_resumed", len(trajectory) - 1)
            # Sources are constant from the last breakpoint before t_stop.
            constant_from = breakpoints[-2] if len(breakpoints) > 1 else 0.0
            latch = LATCH_FRACTION * abs(_node(start.x, one) - _node(start.x, zero))
            state = trajectory[-1]
            while state.t < t_stop - 1e-21:
                state = yield from accepted_step_gen(
                    system, state, breakpoints, options, tel
                )
                trajectory.append(state)
                if state.t >= constant_from and (
                    abs(_node(state.x, one) - _node(state.x, zero)) >= latch
                ):
                    if tel is not None:
                        tel.count("wlcrit.probes_latched")
                    break
        except ConvergenceError:
            # A non-converging corner case is treated as "did not
            # flip": the bisection then errs toward a *larger* WL_crit,
            # the conservative direction for a reliability metric.
            return False
        if tel is not None:
            tel.count("transient.simulations")
        return _node(state.x, one) - _node(state.x, zero) < FLIP_MARGIN

    def search_gen(self, bench_factory):
        """Generator form of :meth:`search`, yielding every probe's
        assembly requests — the WL_crit bisection of a stacked
        Monte-Carlo batch member."""
        # A new cell/assist needs its own system, start and probes.
        self.start = None
        self._system = None
        self._probes = []
        self.decisions = []
        if not (yield from self._probe_gen(bench_factory, self.upper_bound)):
            return math.inf
        if (yield from self._probe_gen(bench_factory, self.lower_bound)):
            return self.lower_bound

        lo, hi = self.lower_bound, self.upper_bound
        while hi - lo > self.relative_tolerance * hi:
            mid = math.sqrt(lo * hi)  # geometric: widths span 3+ decades
            if (yield from self._probe_gen(bench_factory, mid)):
                hi = mid
            else:
                lo = mid
        return hi

    def _probe_gen(self, bench_factory, width: float):
        flipped = yield from self._flips_gen(bench_factory, width)
        self.decisions.append((width, flipped))
        return flipped

    def search(self, bench_factory) -> float:
        """``bench_factory(pulse_width) -> Testbench`` for this cell/assist.

        Probes are not ``transient`` telemetry spans of their own; the
        counters of every probe are recorded.
        """
        return drive(self.search_gen(bench_factory))


class ReferenceWlCritSearch(WlCritSearch):
    """The full-length probe: every probe builds its own system,
    simulates from t = 0 to the end of its settle window and decides on
    the final state; its t = 0 solve is seeded with the previous
    probe's operating point.

    Kept as the reference :class:`WlCritSearch` is checked against
    (value and probe decisions, ``scripts/measure_identity.py``), the
    way :class:`repro.circuit.mna_reference.ReferenceMnaSystem` is kept.
    """

    def search_gen(self, bench_factory):
        self._op_guess = None
        return (yield from super().search_gen(bench_factory))

    def _flips_gen(self, bench_factory, width: float):
        bench = bench_factory(width)
        try:
            result = yield from transient_gen(
                bench.circuit,
                bench.settle_stop(SETTLE_TIME),
                initial_conditions=bench.initial_conditions,
                options=self.options,
                operating_point_guess=self._op_guess,
            )
        except ConvergenceError:
            return False
        # states[0] is the converged t = 0 operating point; node_names
        # and state columns share the same index ordering.
        self._op_guess = dict(
            zip(bench.circuit.node_names, (float(v) for v in result.states[0]))
        )
        return _flipped(bench, result)


def _node(x, index: int) -> float:
    """Node voltage from a solution vector (ground, index -1, is 0 V)."""
    return 0.0 if index < 0 else float(x[index])


def critical_wordline_pulse(
    cell,
    vdd: float,
    assist: Assist | None = None,
    search: WlCritSearch | None = None,
) -> float:
    """WL_crit in seconds for a cell at the given supply (inf if unwritable).

    Every probe runs on the one circuit of the cell's
    ``write_bench_factory(vdd, assist=assist)``."""
    search = search or WlCritSearch()
    return search.search(cell.write_bench_factory(vdd, assist=assist))
