"""Transient analysis: adaptive backward-Euler integration.

Backward Euler is L-stable, which matters here: SRAM flip events mix
picosecond regenerative transitions with nanosecond settling tails, and
the solver must never ring artificially on the stiff part (a trapezoid
oscillation across a separatrix would corrupt every WL_crit bisection).

Step control combines three mechanisms:

* waveform breakpoints are always landed on exactly;
* a step is rejected when Newton fails or when any node moves more than
  ``max_voltage_step`` in one step (temporal resolution guard);
* the step grows after easy steps and shrinks after hard ones.

Each step's Newton iteration is warm-started from a linear
extrapolation of the last two accepted points (``TransientOptions.predictor``)
— on smooth segments this lands within an iteration or two of the
solution.  If Newton rejects the extrapolated seed, the step retries
once from the last accepted point before shrinking, so the predictor
can never make a step fail that would have succeeded without it.

With a :mod:`repro.telemetry` session active, the integrator records
accepted/rejected step counts (split by rejection cause), predictor
fallbacks, a step-size histogram, and breakpoint landings; disabled,
the cost is one guard check per simulation call.

Like the DC solver, the integrator exists once, as generators that
yield their assembly requests.  :func:`accepted_step_gen` takes one
accepted step from an explicit :class:`IntegratorState`;
:func:`transient_gen` is a loop over it, and so is the WL_crit probe
(:mod:`repro.analysis.stability`), which can resume from another
probe's states.  :func:`simulate_transient` drives one generator on the
scalar path (:func:`repro.circuit.dcop.drive`), and
:func:`repro.circuit.batch.run_generators` drives many as a stacked
batch.

A measurement that is decided before ``t_stop`` passes a stop rule,
``until(t, x) -> bool``: the loop shows it every accepted sample, t = 0
included, and ends after the first one for which it holds.  The
breakpoints and ``t_stop`` are those of the full-length run, so every
step taken is the step that run takes and the result is a bytes-equal
prefix of its result; an extraction that reads only samples up to the
stop point then returns the full-length value bit for bit.
:func:`full_length` switches the rules off, for checking exactly that.
"""

from __future__ import annotations

import bisect
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro.circuit.dcop import (
    ConvergenceError,
    SolverOptions,
    drive,
    newton_gen,
    solve_dc_gen,
)
from repro.circuit.mna import MnaSystem, TransientState
from repro.circuit.netlist import Circuit
from repro.circuit.results import TransientResult
from repro.circuit.sparse import make_system
from repro.telemetry import core as telemetry
from repro.verify import audits as verify_audits
from repro.verify import core as verify

__all__ = [
    "IntegratorState",
    "TransientOptions",
    "accepted_step_gen",
    "attempt_step_gen",
    "full_length",
    "shared_steps",
    "simulate_transient",
    "step_breakpoints",
    "transient_gen",
    "transient_start_gen",
]

_EPS = float(np.finfo(float).eps)

StopRule = Callable[[float, np.ndarray], bool]
"""``until(t, x)``: whether a transient may end at the accepted sample
``(t, x)``; ``x`` is the full solution vector."""

_FULL_LENGTH: ContextVar[bool] = ContextVar("repro_transient_full_length", default=False)


def _to_t_stop(t: float, x: np.ndarray) -> bool:
    """The stop rule of a full-length run."""
    return False


@contextmanager
def full_length() -> Iterator[None]:
    """Run every transient started in the block to its ``t_stop``.

    :func:`transient_gen` ignores its stop rule here, so a measurement
    becomes its full-length reference: the same steps to the old end
    and the same extraction on the whole waveform.  The identity checks
    (``scripts/measure_identity.py``, the stop-rule tests) compare the
    two bit for bit.  The switch is a context variable: it holds in the
    calling thread (and every generator it drives), not in others.
    """
    token = _FULL_LENGTH.set(True)
    try:
        yield
    finally:
        _FULL_LENGTH.reset(token)


@dataclass(frozen=True)
class TransientOptions:
    """Integrator controls."""

    initial_step: float = 1e-12
    max_step: float = 5e-11
    min_step: float = 1e-17
    max_voltage_step: float = 0.06
    """Largest accepted per-step node-voltage change (volts)."""

    growth: float = 1.4
    shrink: float = 0.35
    easy_iterations: int = 4
    """Newton iteration count at or below which the step may grow."""

    method: str = "backward_euler"
    """"backward_euler" (L-stable, default) or "trapezoidal"
    (second-order accurate; use for smooth waveform-accuracy studies,
    not for separatrix races where its ringing can corrupt outcomes)."""

    predictor: str = "linear"
    """Newton warm-start seed per step: "linear" extrapolates the last
    two accepted points; "none" seeds from the last accepted point
    (the pre-optimization behaviour)."""

    solver: SolverOptions = SolverOptions()

    def __post_init__(self) -> None:
        if self.method not in ("backward_euler", "trapezoidal"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.predictor not in ("linear", "none"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if not 0.0 < self.shrink < 1.0:
            # shrink >= 1 never shrinks a rejected step (the integrator
            # loops forever); shrink <= 0 underflows at once.
            raise ValueError(f"TransientOptions.shrink must be in (0, 1), got {self.shrink}")
        for name in ("initial_step", "max_step", "min_step"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"TransientOptions.{name} must be > 0, got {value}")


def attempt_step_gen(
    system: MnaSystem,
    x: np.ndarray,
    x_prev: np.ndarray | None,
    h_prev: float,
    t: float,
    h_try: float,
    charges: np.ndarray,
    currents: np.ndarray,
    options: TransientOptions,
    tel,
):
    """Shrink ``h_try`` until one step from ``t`` is accepted.

    Each attempt seeds Newton from the extrapolated predictor (when
    enabled and history exists); a Newton failure on an extrapolated
    seed retries from ``x`` at the same ``h_try`` before shrinking.

    Returns ``(x_new, iterations, state, h_used)`` — all four always
    bound on return, so the caller never touches conditionally-assigned
    locals.  Raises :class:`ConvergenceError` (with forensics) when the
    step underflows ``min_step``.
    """
    extrapolate = (
        options.predictor == "linear" and x_prev is not None and h_prev > 0.0
    )
    while True:
        state = TransientState(
            timestep=h_try,
            capacitor_charges=charges,
            capacitor_currents=currents,
            method=options.method,
        )
        reason = "newton"
        dv = float("nan")
        seeds = [x + (x - x_prev) * (h_try / h_prev)] if extrapolate else []
        seeds.append(x)
        try:
            for attempt, x_seed in enumerate(seeds):
                try:
                    x_new, iterations = yield from newton_gen(
                        system, x_seed, t + h_try, options.solver, transient=state
                    )
                    break
                except ConvergenceError:
                    if attempt == len(seeds) - 1:
                        raise
                    if tel is not None:
                        tel.count("transient.predictor_fallbacks")
            dv = float(np.abs(x_new[: system.n_nodes] - x[: system.n_nodes]).max())
            if dv <= options.max_voltage_step or h_try <= options.min_step:
                return x_new, iterations, state, h_try
            reason = "dv_limit"
        except ConvergenceError:
            pass

        if tel is not None:
            tel.count("transient.steps_rejected")
            tel.count(f"transient.rejected_{reason}")
        h_try *= options.shrink
        if h_try < options.min_step:
            if tel is not None:
                tel.count("transient.step_underflows")
            raise ConvergenceError(
                f"transient step underflow at t = {t:.3e} s",
                forensics={
                    "time_s": t,
                    "step_s": h_try,
                    "last_rejection": reason,
                    "last_dv": dv,
                },
            ) from None


@dataclass(frozen=True, slots=True)
class IntegratorState:
    """One accepted time point and everything the step control carries
    from it to the next step.

    States are never mutated: :func:`accepted_step_gen` returns a new
    one, so a list of them is a reusable trajectory (the WL_crit search
    resumes later probes from an earlier probe's states).
    """

    t: float
    h: float
    """The step the controller wants next, before the breakpoint and
    ``max_step`` cap."""

    x: np.ndarray
    x_prev: np.ndarray | None
    """The previous accepted point (predictor history; None at t = 0)."""

    h_prev: float
    """The step accepted into this point (0 at t = 0)."""

    charges: np.ndarray
    currents: np.ndarray


def step_breakpoints(circuit: Circuit, t_stop: float) -> list[float]:
    """The times the integrator lands on exactly: every waveform
    breakpoint inside (0, t_stop), then ``t_stop``."""
    breakpoints = [b for b in circuit.breakpoints() if 0.0 < b < t_stop]
    breakpoints.append(t_stop)
    return breakpoints


def _capped_step(
    state: IntegratorState, breakpoints: list[float], options: TransientOptions
) -> tuple[float, float]:
    """``(next_break, h_cap)``: the next breakpoint after ``state.t`` and
    the step the next attempt starts from, ``min(h, max_step,
    next_break - t)`` — never across a breakpoint."""
    k = bisect.bisect_right(breakpoints, state.t)
    next_break = breakpoints[k] if k < len(breakpoints) else breakpoints[-1]
    return next_break, min(state.h, options.max_step, next_break - state.t)


def _landing(t: float, h_try: float, next_break: float) -> float:
    """The time a step of ``h_try`` from ``t`` lands on.

    Snaps accumulated-roundoff landings onto the breakpoint.  A fixed
    step that divides the breakpoint time exactly in real arithmetic can
    still leave ``t`` a few ulps short of it in floats; the leftover
    ~ulp sliver step would get a companion conductance C/h so large that
    Newton can never satisfy the absolute residual tolerance, and the
    run dies in a step underflow.  The slack is a few ulps — far below
    any real waveform feature spacing.
    """
    t_new = t + h_try
    if t_new != next_break and abs(next_break - t_new) <= 64.0 * _EPS * next_break:
        return next_break
    return t_new


def transient_start_gen(
    circuit: Circuit,
    initial_conditions: dict[str, float] | None,
    options: TransientOptions,
    operating_point_guess: dict[str, float] | None = None,
    system: MnaSystem | None = None,
):
    """Solve the circuit's t = 0 operating point on ``system``, built
    here when not given (a caller that solves the same circuit again
    passes the system it got back).

    Returns ``(system, state)``, ``state`` the integrator state at t = 0.
    """
    guess = dict(operating_point_guess or {})
    guess.update(initial_conditions or {})
    if system is None:
        # Dense class through the module global so monkeypatched
        # assemblers (ReferenceMnaSystem in benchmarks) keep flowing
        # through the factory.
        system = make_system(
            circuit,
            matrix_format=options.solver.matrix_format,
            sparse_threshold=options.solver.sparse_threshold,
            dense_cls=MnaSystem,
        )
    op = yield from solve_dc_gen(
        circuit,
        initial_guess=guess or None,
        clamp_nodes=initial_conditions,
        options=options.solver,
        system=system,
    )
    x = op.x.copy()
    # Charges and currents come from the system's own scalar assembler
    # even inside a stacked batch: the batched stamps are bit-identical
    # to it, so mixing the two is exact.
    charges = system.capacitor_charges(x)
    currents = np.zeros_like(charges)  # caps carry no current at DC
    return system, IntegratorState(0.0, options.initial_step, x, None, 0.0, charges, currents)


def accepted_step_gen(
    system: MnaSystem,
    state: IntegratorState,
    breakpoints: list[float],
    options: TransientOptions,
    tel,
):
    """One accepted step from ``state``; returns the next state.

    The step control: the attempt starts at :func:`_capped_step`,
    :func:`attempt_step_gen` shrinks it until Newton and the voltage
    guard accept, and the controller then updates the wanted step.
    """
    next_break, h_cap = _capped_step(state, breakpoints, options)
    x_new, iterations, step_state, h_try = yield from attempt_step_gen(
        system, state.x, state.x_prev, state.h_prev, state.t, h_cap,
        state.charges, state.currents, options, tel,
    )
    t = _landing(state.t, h_try, next_break)
    charges = system.capacitor_charges(x_new)
    currents = step_state.currents(charges)

    ver = verify.active()
    if ver is not None:
        verify_audits.audit_transient_step(
            ver, system, state.x, x_new, step_state, charges, currents
        )

    if tel is not None:
        tel.count("transient.steps_accepted")
        tel.observe("transient.step_seconds", h_try)
        if t >= next_break - 1e-21:
            tel.count("transient.breakpoint_landings")

    # Controller update.  ``h`` is the step the controller *wants*;
    # ``h_cap`` is what the breakpoint/max_step clamp allowed this
    # attempt, and ``h_try`` what was actually accepted.  Only a
    # shrink during the attempt (Newton failure, dv limit) pulls the
    # controller down — a step that was merely clamped to land on a
    # breakpoint must not reset the working step to the sliver, which
    # previously forced a 1.4x/step regrowth climb after every late
    # breakpoint.
    h = state.h
    if h_try < h_cap:
        h = h_try
    elif iterations <= options.easy_iterations:
        h = min(max(h, h_try) * options.growth, options.max_step)
    return IntegratorState(t, h, x_new, state.x, h_try, charges, currents)


def _first_unshared(a: list[float], b: list[float]) -> float:
    """The earliest time in one sorted breakpoint list but not the other."""
    for p, q in zip(a, b):
        if p != q:
            return min(p, q)
    if len(a) != len(b):
        return (a if len(a) > len(b) else b)[min(len(a), len(b))]
    return math.inf


def shared_steps(
    trajectory: list[IntegratorState],
    stored_breaks: list[float],
    breakpoints: list[float],
    options: TransientOptions,
) -> int:
    """How many of a stored run's steps another run would take bit for bit.

    ``trajectory`` is the stored run's accepted states from t = 0 and
    ``stored_breaks`` its :func:`step_breakpoints`; the other run has
    the same circuit topology, t = 0 state and options, its own
    ``breakpoints``, and sources that agree with the stored run's up to
    the first breakpoint the two do not share (benches that differ
    only in a pulse width).  Step ``i`` from ``trajectory[i]`` is
    shared while both runs' step control makes the same choices from
    that state — the same :func:`_capped_step` size and the same
    :func:`_landing` snap — and the step ends no later than that first
    unshared breakpoint, so every Newton solve of the step sees the
    same residuals.

    A state more than one ``max_step``, plus the snap's slack, before
    both that breakpoint and ``t_stop`` passes all three checks: each
    run's next breakpoint is then a common one or out of the step's
    reach.  The check therefore starts at the first such state past
    that horizon, found by bisection over the stored times.
    """
    unshared = _first_unshared(stored_breaks, breakpoints)
    t_stop = breakpoints[-1]
    # Twice the snap's 64 ulps of the latest breakpoint either run
    # knows, so float rounding of t + h cannot reach a snap either.
    slack = 128.0 * _EPS * max(stored_breaks[-1], t_stop)
    horizon = min(unshared, t_stop) - options.max_step - slack
    first = bisect.bisect_left(trajectory, horizon, key=lambda state: state.t)
    for i in range(first, len(trajectory) - 1):
        state = trajectory[i]
        stored_break, stored_cap = _capped_step(state, stored_breaks, options)
        next_break, cap = _capped_step(state, breakpoints, options)
        h_try = trajectory[i + 1].h_prev
        if (
            state.t >= t_stop - 1e-21
            or cap != stored_cap
            or state.t + cap > unshared
            or _landing(state.t, h_try, next_break)
            != _landing(state.t, h_try, stored_break)
        ):
            return i
    return len(trajectory) - 1


def transient_gen(
    circuit: Circuit,
    t_stop: float,
    initial_conditions: dict[str, float] | None = None,
    options: TransientOptions | None = None,
    operating_point_guess: dict[str, float] | None = None,
    until: StopRule | None = None,
):
    """Generator form of :func:`simulate_transient`: the integration loop."""
    if t_stop <= 0.0:
        raise ValueError("t_stop must be positive")
    options = options or TransientOptions()
    tel = telemetry.active()
    if until is None or _FULL_LENGTH.get():
        until = _to_t_stop

    system, state = yield from transient_start_gen(
        circuit, initial_conditions, options, operating_point_guess
    )
    breakpoints = step_breakpoints(circuit, t_stop)
    times = [state.t]
    states = [state.x]
    while not until(state.t, state.x) and state.t < t_stop - 1e-21:
        state = yield from accepted_step_gen(system, state, breakpoints, options, tel)
        times.append(state.t)
        states.append(state.x)

    if tel is not None:
        tel.count("transient.simulations")
        if state.t < t_stop - 1e-21:
            tel.count("transient.stopped")
        tel.event(
            "transient.complete",
            level="debug",
            t_stop=t_stop,
            points=len(times),
        )
    return TransientResult(circuit, np.array(times), np.array(states))


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    initial_conditions: dict[str, float] | None = None,
    options: TransientOptions | None = None,
    operating_point_guess: dict[str, float] | None = None,
    until: StopRule | None = None,
) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop``.

    ``initial_conditions`` pin the named nodes for the t = 0 operating
    point (bistable-state selection) and are released afterwards.

    ``until(t, x)``, when given, sees every accepted sample from t = 0
    on and ends the run after the first sample for which it holds (the
    ``transient.stopped`` counter records a run it ended before
    ``t_stop``).  Steps and breakpoints are the full-length run's, so
    the result is a bytes-equal prefix of the full-length result.

    ``operating_point_guess`` seeds the t = 0 DC solve with node
    voltages from a previous converged run of the same cell — bisection
    loops (WL_crit) pass the last solution so repeated simulations skip
    the homotopy-from-zero ramp.  A bad guess only costs the solver its
    warm-start tier; the cold-start and stepping fallbacks still run.
    A guess naming a node this circuit does not have (a seed carried
    over from a different circuit) raises :class:`ValueError`.

    With telemetry on, the run is one ``transient`` span (the t = 0 DC
    solve inside it is not a span of its own) and one
    ``transient.wall_s`` timer sample.
    """
    gen = transient_gen(
        circuit, t_stop, initial_conditions, options, operating_point_guess, until
    )
    tel = telemetry.active()
    if tel is None:
        return drive(gen)
    with tel.span("transient"):
        wall_start = time.perf_counter()
        result = drive(gen)
        tel.add_time("transient.wall_s", time.perf_counter() - wall_start)
    return result
