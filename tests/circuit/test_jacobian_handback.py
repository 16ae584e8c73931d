"""The Jacobian an answer hands back with a residual.

``run_generators`` answers every request with the member's residual
and its Jacobian slice, residual-only (line search) requests included;
``newton_gen`` keeps the Jacobian that arrives with its accepted
line-search residual and factorizes it for the re-stamp at that point,
before its next yield.  ``drive`` still answers residual requests with
``None``, so the scalar path's requests are pinned unchanged by
``test_dcop.py::TestNewtonRequests``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.circuit.dcop as dcop
from repro.circuit.batch import run_generators
from repro.circuit.dcop import SolverOptions, drive, newton_gen, solve_dc_gen
from repro.circuit.mna import MnaSystem, VoltageClamp
from repro.circuit.transient import (
    TransientOptions,
    accepted_step_gen,
    step_breakpoints,
    transient_gen,
    transient_start_gen,
)
from repro.telemetry import core as telemetry
from tests.circuit.test_batch import T_STOP, VARIANTS, _inverter


def _drive_handing_back(gen):
    """Drive ``gen`` on its own systems, answering every request with a
    freshly assembled ``(f, J)`` — the Jacobian too when only the
    residual was asked for — and fill each handed-out Jacobian with NaN
    as soon as the generator yields again.

    Returns ``(value, jacobian_requests)``.
    """
    answer = None
    handed = None
    requests = 0
    while True:
        try:
            system, x, t, gmin, transient, clamps, scale, want_jac = gen.send(answer)
        except StopIteration as stop:
            return stop.value, requests
        if handed is not None:
            handed.fill(np.nan)
        requests += want_jac
        answer = system.assemble(
            x, t, gmin=gmin, transient=transient, clamps=clamps,
            source_scale=scale, copy=True,
        )
        handed = answer[1]


def _dc_solve(**kwargs):
    """Plain Newton at t = 0 from the supply's voltage, zeros elsewhere."""
    system = MnaSystem(_inverter(*VARIANTS[0]))
    x0 = np.zeros(system.size)
    x0[system.circuit.index_of("vdd")] = 0.8
    return newton_gen(system, x0, 0.0, SolverOptions(), **kwargs)


def _clamped_solve():
    out = _inverter(*VARIANTS[0]).index_of("out")
    return _dc_solve(clamps=(VoltageClamp(out, 0.8),))


def _transient_step():
    """One accepted step on the input's rising edge, Newton solves and
    all; the steps from t = 0 to the edge are taken on the scalar path."""
    options = TransientOptions()
    system, state = drive(transient_start_gen(_inverter(*VARIANTS[0]), None, options))
    breakpoints = step_breakpoints(system.circuit, T_STOP)
    while state.t < 2.2e-10:
        state = drive(accepted_step_gen(system, state, breakpoints, options, None))
    return accepted_step_gen(system, state, breakpoints, options, None)


CASES = {
    "dc": _dc_solve,
    "gmin": lambda: _dc_solve(extra_gmin=1e-6),
    "clamps": _clamped_solve,
    "transient-step": _transient_step,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_handed_back_jacobian_is_factorized_before_the_next_yield(case):
    ref_gen, gen = CASES[case](), CASES[case]()
    with telemetry.enabled() as tel:
        ref = drive(ref_gen)
        ref_stamps = tel.counters["newton.jacobian_stamps"]
    with telemetry.enabled() as tel:
        got, requests = _drive_handing_back(gen)
        stamps = tel.counters["newton.jacobian_stamps"]

    if case == "transient-step":
        assert got.t == ref.t
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.charges.tobytes() == ref.charges.tobytes()
        assert got.currents.tobytes() == ref.currents.tobytes()
    else:
        x, iterations = got
        assert x.tobytes() == ref[0].tobytes()
        assert iterations == ref[1]
    # The same factorizations, fewer of them asked for: the re-stamps
    # at accepted points used the Jacobians handed back.
    assert stamps == ref_stamps
    assert requests < stamps


class _Log:
    """One member's requests, answers and factorizations."""

    def __init__(self):
        self.previous = None  # the member's last request
        self.answer_jac = None  # the Jacobian of its last answer
        self.asked = False  # whether its last request wanted that Jacobian
        self.jacobian_requests = 0
        self.handbacks = 0
        self.factorizations = 0
        self.repeated_points = 0


def _point(request):
    system, x, t, gmin, transient, clamps, scale, _ = request
    return (id(system), x.tobytes(), t, gmin, id(transient), clamps, scale)


def _logged(gen, log, current):
    """Forward ``gen``'s requests and answers unchanged, logging them;
    ``current`` names the log of the member that is running."""
    answer = None
    while True:
        current[0] = log
        try:
            request = gen.send(answer)
        except StopIteration as stop:
            return stop.value
        finally:
            current[0] = None
        want_jac = request[7]
        previous = log.previous
        if want_jac:
            log.jacobian_requests += 1
            if previous is not None and not previous[7] and _point(previous) == _point(request):
                log.repeated_points += 1
        log.previous = request
        answer = yield request
        log.answer_jac, log.asked = answer[1], want_jac


def test_batch_members_never_ask_again_for_a_handed_back_jacobian(monkeypatch):
    current = [None]
    real = dcop._factorize

    def counted(jac):
        log = current[0]
        assert jac is log.answer_jac, "factorized a Jacobian that is not the last answer's"
        log.factorizations += 1
        log.handbacks += not log.asked
        return real(jac)

    monkeypatch.setattr(dcop, "_factorize", counted)
    first, second, third = VARIANTS[:3]
    members = [
        lambda: transient_gen(_inverter(*first), T_STOP),
        lambda: transient_gen(
            _inverter(*second), T_STOP / 2, initial_conditions={"out": 0.8},
            options=TransientOptions(method="trapezoidal"),
        ),
        lambda: solve_dc_gen(_inverter(*third)),
    ]
    logs = [_Log() for _ in members]
    outcomes = run_generators([_logged(make(), log, current) for make, log in zip(members, logs)])
    monkeypatch.undo()

    assert [o.status for o in outcomes] == ["ok"] * len(members)
    for log in logs:
        assert log.repeated_points == 0
        assert log.jacobian_requests + log.handbacks == log.factorizations
    assert all(log.handbacks > 0 for log in logs)

    # The values are the scalar path's.
    for make, outcome in zip(members[:2], outcomes):
        assert outcome.value.states.tobytes() == drive(make()).states.tobytes()
    assert outcomes[2].value.x.tobytes() == drive(members[2]()).x.tobytes()
