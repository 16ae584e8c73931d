"""One start state per WL_crit search, and the bisected ``shared_steps``.

:class:`WlCritSearch` solves the t = 0 operating point once per search
(cold, then warm from its own solution) and starts every probe there,
so the first probe's trajectory is resumable like every other.
:func:`repro.circuit.transient.shared_steps` finds the first state it
must check by bisection; :func:`walked_shared_steps` below is the
step-by-step walk it replaced, kept as its reference.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stability import ReferenceWlCritSearch, WlCritSearch
from repro.char.designs import build_cell
from repro.char.metrics import WL_CRIT_UPPER_BOUND
from repro.circuit import transient
from repro.circuit.dcop import ConvergenceError, drive
from repro.circuit.transient import TransientOptions, shared_steps, transient_start_gen

OPTIONS = TransientOptions()
HOLD_STEPS = 51
"""Accepted steps of the proposed cell's write bench up to the
wordline edge at 0.8 V: the part every probe of its search shares."""

EPS = 2.0**-52


def walked_shared_steps(trajectory, stored_breaks, breakpoints, options) -> int:
    """``shared_steps`` as a walk over every stored state from t = 0."""
    unshared = transient._first_unshared(stored_breaks, breakpoints)
    t_stop = breakpoints[-1]
    for i in range(len(trajectory) - 1):
        state = trajectory[i]
        stored_break, stored_cap = transient._capped_step(state, stored_breaks, options)
        next_break, cap = transient._capped_step(state, breakpoints, options)
        h_try = trajectory[i + 1].h_prev
        if (
            state.t >= t_stop - 1e-21
            or cap != stored_cap
            or state.t + cap > unshared
            or transient._landing(state.t, h_try, next_break)
            != transient._landing(state.t, h_try, stored_break)
        ):
            return i
    return len(trajectory) - 1


def _proposed_factory():
    return build_cell("proposed")[0].write_bench_factory(0.8)


@pytest.fixture(scope="module")
def proposed_search():
    """The proposed cell's search at 0.8 V with ``evaluate_metric``'s
    8 ns bound, a ``perfbench/golden.json`` entry."""
    search = WlCritSearch(upper_bound=WL_CRIT_UPPER_BOUND)
    factory = _proposed_factory()
    value = search.search(factory)
    return search, factory, value


class TestSharedStart:
    def test_every_probe_starts_from_the_same_state_bytes(self, proposed_search):
        search, _, _ = proposed_search
        assert len(search._probes) == len(search.decisions) == 11
        key = search.start.x.tobytes()
        assert all(trajectory[0].x.tobytes() == key for _, trajectory in search._probes)
        assert search.start.t == 0.0

    def test_start_is_a_warm_fixed_point(self, proposed_search):
        search, factory, _ = proposed_search
        bench = factory(search.upper_bound)
        guess = dict(zip(bench.circuit.node_names, map(float, search.start.x)))
        _, state = drive(
            transient_start_gen(bench.circuit, bench.initial_conditions, OPTIONS, guess)
        )
        assert state.x.tobytes() == search.start.x.tobytes()

    def test_start_is_the_reference_probes_operating_point(self, proposed_search):
        # Every reference probe after the first solves t = 0 seeded with
        # the previous probe's point; the search starts where they end.
        search, factory, value = proposed_search
        reference = ReferenceWlCritSearch(upper_bound=WL_CRIT_UPPER_BOUND)
        assert reference.search(_proposed_factory()) == value
        assert reference.decisions == search.decisions
        names = factory(search.upper_bound).circuit.node_names
        assert [reference._op_guess[name] for name in names] == [
            float(v) for v in search.start.x[: len(names)]
        ]

    def test_second_probe_resumes_the_first_probes_hold_steps(self, proposed_search):
        search, _, _ = proposed_search
        (_, first), (_, second) = search._probes[:2]
        same = itertools.takewhile(lambda pair: pair[0] is pair[1], zip(first, second))
        assert sum(1 for _ in same) - 1 >= HOLD_STEPS


    def test_failed_operating_point_is_an_unwritable_cell(self, monkeypatch):
        from repro.analysis import stability

        def no_operating_point(*args, **kwargs):
            raise ConvergenceError("DC operating point failed after every fallback tier")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(stability, "transient_start_gen", no_operating_point)
        search = WlCritSearch(upper_bound=WL_CRIT_UPPER_BOUND)
        assert search.search(_proposed_factory()) == math.inf
        assert search.decisions == [(WL_CRIT_UPPER_BOUND, False)]
        assert search.start is None

    def test_benches_on_another_circuit_are_rejected(self):
        cell = build_cell("proposed")[0]
        search = WlCritSearch(upper_bound=WL_CRIT_UPPER_BOUND)
        with pytest.raises(ValueError, match="one circuit"):
            search.search(lambda width: cell.write_testbench(0.8, width))


class TestBisectedSharedSteps:
    def test_matches_the_walk_on_every_probe_pair(self, proposed_search):
        search, _, _ = proposed_search
        probes = search._probes
        pairs = 0
        for k, (breakpoints, _) in enumerate(probes):
            for stored_breaks, trajectory in probes[:k]:
                assert shared_steps(
                    trajectory, stored_breaks, breakpoints, OPTIONS
                ) == walked_shared_steps(trajectory, stored_breaks, breakpoints, OPTIONS)
                pairs += 1
        assert pairs == 55

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_walk_on_perturbed_breakpoints(self, proposed_search, data):
        search, _, _ = proposed_search
        probes = search._probes
        stored_breaks, trajectory = data.draw(st.sampled_from(probes), label="stored")
        base, _ = data.draw(st.sampled_from(probes), label="base")
        times = [s.t for s in trajectory]
        points = list(base)
        for _ in range(data.draw(st.integers(0, 4), label="edits")):
            anchor = data.draw(st.sampled_from(points + times), label="anchor")
            shift = data.draw(
                st.one_of(
                    st.integers(-300, 300).map(lambda k: k * EPS * anchor),
                    st.floats(-3.0, 3.0).map(lambda f: f * OPTIONS.max_step),
                    st.just(OPTIONS.max_step),
                ),
                label="shift",
            )
            kind = data.draw(st.sampled_from(["move", "insert", "drop"]), label="kind")
            if kind != "insert" and anchor in points and len(points) > 1:
                points.remove(anchor)
            if kind != "drop":
                points.append(anchor + shift)
        breakpoints = sorted({p for p in points if p > 0.0})
        if not breakpoints:
            breakpoints = [times[-1]]
        assert shared_steps(
            trajectory, stored_breaks, breakpoints, OPTIONS
        ) == walked_shared_steps(trajectory, stored_breaks, breakpoints, OPTIONS)
