"""DC operating-point solver: damped Newton with homotopy fallbacks.

TFET circuits are numerically nasty for a DC solver — currents span
13+ decades and the cells under study are deliberately bistable — so
the solver runs the standard SPICE escalation: plain Newton-Raphson
(with a per-iteration voltage-step limit), then gmin stepping, then
source stepping.  Callers seed the bistable state via ``initial_guess``
and/or :class:`VoltageClamp` entries.

The Newton iteration is a *modified* Newton: the LU factorization of
the Jacobian is kept and re-used across iterations
(``scipy.linalg.lu_factor``/``lu_solve`` when scipy is present, a
pure-numpy fallback otherwise), and the Jacobian is re-stamped only
when the iteration stalls — a backtracked line search, a weak residual
reduction, or the factorization aging out (``SolverOptions``'s
``jacobian_reuse``/``max_jacobian_age``/``reuse_descent_factor``).
Line searches evaluate the residual only (no Jacobian stores), so a
backtrack costs a fraction of a full assembly.

Both solvers are instrumented against :mod:`repro.telemetry`: when a
session is active, each Newton solve records its iteration count,
line-search backtracks, trust-region shrinks, and Jacobian
stamp/reuse split (``newton.jacobian_stamps`` vs
``newton.jacobian_reuses``), and ``solve_dc`` records which fallback
tier finally converged.  With telemetry off the cost is one guard
check per solve.  On failure, a forensic snapshot (worst-residual node
names, last dV, fallback tier reached) rides on the
:class:`ConvergenceError` so the exception alone is diagnosable.

The control flow exists once, as generators (:func:`newton_gen`,
:func:`solve_dc_gen`) that *yield* every assembly they need as a
request ``(system, x, t, gmin, transient, clamps, source_scale,
want_jac)`` and receive ``(f, jac)``, ``jac`` valid until the
generator's next yield.  An answer to a residual request may carry the
Jacobian at that point too.  :func:`drive` answers the requests of one
generator with the named system's own ``assemble(..., copy=False)`` or
``assemble_residual`` (``jac`` None) — the scalar path, for the dense,
sparse and reference assemblers alike — and
:func:`repro.circuit.batch.run_generators` answers many at once with a
stacked assembly, the Jacobian always included.  :func:`newton_solve`
and :func:`solve_dc` are :func:`drive` over the generators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.netlist import Circuit
from repro.circuit.results import OperatingPoint
from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD, SparseFactorization, make_system
from repro.telemetry import core as telemetry
from repro.verify import audits as verify_audits
from repro.verify import core as verify

# Raw LAPACK getrf/getrs: the scipy lu_factor/lu_solve wrappers add
# ~100 us of validation per call, which is comparable to the
# factorization itself at SRAM-cell matrix sizes (~20x20).
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1)),))

__all__ = [
    "SolverOptions",
    "ConvergenceError",
    "drive",
    "newton_gen",
    "newton_solve",
    "solve_dc",
    "solve_dc_gen",
]


def _format_forensic(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, (list, tuple)):
        return "|".join(_format_forensic(v) for v in value)
    return str(value)


class ConvergenceError(RuntimeError):
    """The nonlinear solver failed to converge.

    ``forensics`` carries a structured snapshot of the failure (worst
    residual nodes, last voltage step, fallback tier reached, …); it is
    also rendered into the message so a bare traceback is enough to
    diagnose the failure.
    """

    def __init__(self, message: str, forensics: dict | None = None):
        self.forensics = dict(forensics or {})
        if self.forensics:
            detail = ", ".join(
                f"{key}={_format_forensic(value)}"
                for key, value in self.forensics.items()
            )
            message = f"{message} [{detail}]"
        super().__init__(message)


@dataclass(frozen=True)
class SolverOptions:
    """Newton-Raphson controls."""

    max_iterations: int = 80
    voltage_tolerance: float = 1e-7
    residual_tolerance: float = 1e-10
    step_limit: float = 0.4
    """Maximum node-voltage change per Newton iteration (volts)."""

    gmin: float = 1e-12
    """Permanent node-to-ground conductance floor."""

    line_search_backtracks: int = 6
    """Maximum residual-norm backtracking halvings per iteration."""

    jacobian_reuse: bool = True
    """Re-use the LU factorization across iterations (modified Newton)."""

    max_jacobian_age: int = 6
    """Iterations a factorization may serve before a forced re-stamp."""

    reuse_descent_factor: float = 0.5
    """Re-stamp when ``||f_new|| > factor * ||f_old||`` on a reused
    factorization — a stale direction that stops making fast progress
    is refreshed rather than ridden into a stall."""

    matrix_format: str = "auto"
    """MNA assembly backend: ``"auto"`` (sparse CSC once the system
    reaches ``sparse_threshold`` unknowns, dense below), ``"dense"``,
    or ``"sparse"``.  See :func:`repro.circuit.sparse.make_system`."""

    sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD
    """System size (nodes + source branches) at which ``"auto"``
    switches to sparse assembly."""

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(
                f"SolverOptions.max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.line_search_backtracks < 0:
            raise ValueError(
                "SolverOptions.line_search_backtracks must be >= 0, "
                f"got {self.line_search_backtracks}"
            )


class _Factorization:
    """LU of one stamped dense Jacobian: factorize once (LAPACK getrf),
    back-substitute per solve (getrs)."""

    __slots__ = ("_lu", "_piv")

    def __init__(self, jac: np.ndarray):
        lu, piv, info = _getrf(jac)
        # getrf signals exact singularity via info > 0 (zero U
        # diagonal) instead of raising; a NaN/Inf Jacobian passes
        # through LAPACK silently.  Normalize both to the
        # LinAlgError contract np.linalg.solve provides.
        if info != 0 or not np.isfinite(lu).all():
            raise np.linalg.LinAlgError("singular matrix in LU factorization")
        self._lu, self._piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = _getrs(self._lu, self._piv, rhs)
        return x


def _factorize(jac):
    """Factorize a stamped Jacobian — dense LU or sparse splu by type."""
    if isinstance(jac, np.ndarray):
        return _Factorization(jac)
    return SparseFactorization(jac)


def _worst_residual_nodes(
    system: MnaSystem, f: np.ndarray, top: int = 3
) -> list[str]:
    """The ``top`` node names with the largest KCL residual, annotated."""
    names = system.circuit.node_names
    n = min(system.n_nodes, len(names))
    if n == 0:
        return []
    magnitudes = np.abs(f[:n])
    order = np.argsort(magnitudes)[::-1][:top]
    return [f"{names[int(i)]}:{magnitudes[int(i)]:.2e}" for i in order]


def drive(gen):
    """Run one solver generator to completion on the scalar path.

    The K = 1 driver: each request names its system, which answers it
    with its own ``assemble(..., copy=False)`` (Jacobian requests) or
    ``assemble_residual`` (the Jacobian-free line-search requests), so
    the dense, sparse and reference assemblers all work unchanged.
    Returns the generator's return value; its exceptions propagate.
    """
    answer = None
    while True:
        try:
            system, x, t, gmin, transient, clamps, source_scale, want_jac = gen.send(answer)
        except StopIteration as stop:
            return stop.value
        if want_jac:
            answer = system.assemble(
                x, t, gmin=gmin, transient=transient, clamps=clamps,
                source_scale=source_scale, copy=False,
            )
        else:
            f = system.assemble_residual(
                x, t, gmin=gmin, transient=transient, clamps=clamps,
                source_scale=source_scale,
            )
            answer = (f, None)


def newton_gen(
    system: MnaSystem,
    x0: np.ndarray,
    t: float,
    options: SolverOptions,
    transient: TransientState | None = None,
    clamps: tuple[VoltageClamp, ...] = (),
    extra_gmin: float = 0.0,
    source_scale: float = 1.0,
):
    """Damped modified Newton with backtracking; returns (x, iterations).

    Device characteristics with locally flat regions (e.g. the dip where
    the TFET's gated reverse component hands over to the p-i-n diode)
    produce huge raw Newton steps; a residual-norm line search keeps the
    iteration descending instead of oscillating across the flat spot.

    The Jacobian LU is re-used across iterations and re-stamped only on
    stall (see :class:`SolverOptions`); a step taken from a stale
    factorization that fails to descend is discarded and retried with a
    fresh stamp before the iteration counts as failed.

    A generator: every assembly is yielded as a request (see the module
    docstring).  The Jacobian it receives may be a reusable buffer that
    is valid only until the next yield, so it is factorized at once.  A
    Jacobian that comes with the accepted line-search residual is kept
    for a re-stamp at that point, which it serves instead of a request
    of its own (always before the next yield); on every other path it
    is dropped.
    """
    tel = telemetry.active()
    wall_start = time.perf_counter() if tel is not None else 0.0

    x = x0.copy()
    n = system.n_nodes
    gmin = options.gmin + extra_gmin

    # Iteration 1 always stamps at x0, so the first request asks for
    # the Jacobian too: its residual is the one a residual-only request
    # would return, and the solve saves one assembly.  From then on
    # ``jac`` is None or the Jacobian at ``x`` handed back with the
    # accepted line-search residual, valid until the next yield.
    f, jac = yield (system, x, t, gmin, transient, clamps, source_scale, True)
    norm = math.sqrt(f.dot(f))
    factor = None
    age = 0
    stamps = 0
    reuses = 0
    residual_ok_streak = 0
    trust = options.step_limit
    backtracks = 0
    trust_shrinks = 0
    step = float("nan")
    iteration = 0
    while iteration < options.max_iterations:
        iteration += 1

        refresh = (
            factor is None
            or not options.jacobian_reuse
            or age >= options.max_jacobian_age
        )
        if refresh:
            if jac is None:
                _, jac = yield (system, x, t, gmin, transient, clamps, source_scale, True)
            try:
                factor = _factorize(jac)
            except np.linalg.LinAlgError as exc:
                if tel is not None:
                    tel.count("newton.singular_jacobians")
                    _record_newton(tel, wall_start, iteration, backtracks,
                                   trust_shrinks, stamps, reuses, converged=False)
                raise ConvergenceError(
                    f"singular Jacobian at iteration {iteration}",
                    forensics={"worst_residual_nodes": _worst_residual_nodes(system, f)},
                ) from exc
            age = 0
            stamps += 1
        else:
            age += 1
            reuses += 1
        jac = None  # a reusable buffer: stale after the next yield

        try:
            delta = factor.solve(-f)
        except np.linalg.LinAlgError as exc:
            if tel is not None:
                tel.count("newton.singular_jacobians")
                _record_newton(tel, wall_start, iteration, backtracks,
                               trust_shrinks, stamps, reuses, converged=False)
            raise ConvergenceError(
                f"singular Jacobian at iteration {iteration}",
                forensics={"worst_residual_nodes": _worst_residual_nodes(system, f)},
            ) from exc
        magnitude = np.abs(delta)
        if not math.isfinite(magnitude.max()):
            if age > 0:
                # The stale factorization produced garbage; retry this
                # iteration with a fresh stamp before giving up.
                factor = None
                iteration -= 1
                continue
            if tel is not None:
                _record_newton(tel, wall_start, iteration, backtracks,
                               trust_shrinks, stamps, reuses, converged=False)
            raise ConvergenceError(
                f"non-finite Newton step at iteration {iteration}",
                forensics={"worst_residual_nodes": _worst_residual_nodes(system, f)},
            )

        max_dv = float(magnitude[:n].max()) if n else 0.0
        if max_dv > trust:
            delta = delta * (trust / max_dv)
            max_dv = trust

        scale = 1.0
        descended = False
        for _ in range(options.line_search_backtracks + 1):
            x_try = x + delta if scale == 1.0 else x + scale * delta
            f_try, jac_try = yield (
                system, x_try, t, gmin, transient, clamps, source_scale, False
            )
            norm_try = math.sqrt(f_try.dot(f_try))
            if norm_try <= norm or norm == 0.0:
                descended = True
                break
            scale *= 0.5
            backtracks += 1
        if not descended and age > 0:
            # A stale direction that cannot descend at any scale is not
            # a Newton failure — discard the step, re-stamp at the
            # current point, and retry the iteration (f is untouched:
            # residual answers are fresh arrays).
            factor = None
            iteration -= 1
            continue
        x, f, jac, norm_old, norm = x_try, f_try, jac_try, norm, norm_try
        step = scale * max_dv

        # Trust-region adaptation: a backtracked step means the Newton
        # direction overshoots (flat, curved residual valley near a
        # metastable point) — shrink the cap; a clean full step restores it.
        if scale < 1.0:
            trust = max(0.25 * trust, 1e-7)
            trust_shrinks += 1
            factor = None  # curvature moved under us; re-stamp next iteration
        else:
            trust = min(2.0 * trust, options.step_limit)
            if age > 0 and norm > options.reuse_descent_factor * norm_old:
                factor = None  # stale direction stopped making fast progress

        max_f = float(np.abs(f).max())
        if max_f < options.residual_tolerance:
            # Convergence is only judged on *fresh*-factorization
            # iterations: a stale LU underestimates the true Newton
            # step, so a reused-Jacobian iterate that looks settled can
            # still carry microvolts of error.  A stale iteration in
            # the endgame re-stamps and confirms on the next pass —
            # acceptance accuracy is identical to full Newton.
            if age == 0:
                residual_ok_streak += 1
                # Near a metastable/bistable boundary the Jacobian is
                # close to singular: the step never settles although
                # KCL holds to the requested current accuracy at every
                # iterate.  Accept once the residual has stayed
                # converged for a few (fresh) steps.
                if step < options.voltage_tolerance or residual_ok_streak >= 3:
                    ver = verify.active()
                    if ver is not None:
                        verify_audits.audit_newton_solution(
                            ver, system, x, t, gmin=gmin,
                            transient=transient, clamps=clamps,
                            source_scale=source_scale,
                            residual_tolerance=options.residual_tolerance,
                        )
                    if tel is not None:
                        _record_newton(tel, wall_start, iteration, backtracks,
                                       trust_shrinks, stamps, reuses,
                                       converged=True)
                    return x, iteration
            else:
                factor = None
        else:
            residual_ok_streak = 0

    if tel is not None:
        _record_newton(tel, wall_start, options.max_iterations, backtracks,
                       trust_shrinks, stamps, reuses, converged=False)
    raise ConvergenceError(
        f"Newton did not converge in {options.max_iterations} iterations",
        forensics={
            "last_dv": step,
            "max_residual": float(np.max(np.abs(f))),
            "worst_residual_nodes": _worst_residual_nodes(system, f),
            "extra_gmin": extra_gmin,
            "source_scale": source_scale,
        },
    )


def newton_solve(
    system: MnaSystem,
    x0: np.ndarray,
    t: float,
    options: SolverOptions,
    transient: TransientState | None = None,
    clamps: tuple[VoltageClamp, ...] = (),
    extra_gmin: float = 0.0,
    source_scale: float = 1.0,
) -> tuple[np.ndarray, int]:
    """:func:`newton_gen` on the scalar path; returns (x, iterations)."""
    return drive(newton_gen(
        system, x0, t, options, transient, clamps, extra_gmin, source_scale
    ))


def _record_newton(
    tel, wall_start: float, iterations: int, backtracks: int,
    trust_shrinks: int, stamps: int, reuses: int, converged: bool,
) -> None:
    tel.count("newton.solves")
    tel.count("newton.iterations", iterations)
    tel.count("newton.backtracks", backtracks)
    tel.count("newton.trust_shrinks", trust_shrinks)
    tel.count("newton.jacobian_stamps", stamps)
    tel.count("newton.jacobian_reuses", reuses)
    tel.observe("newton.iterations_per_solve", iterations)
    tel.add_time("newton.wall_s", time.perf_counter() - wall_start)
    if not converged:
        tel.count("newton.failures")
        tel.event("newton.failure", level="debug", iterations=iterations,
                  backtracks=backtracks)


def _check_finite_voltage(role: str, name: str, value) -> None:
    """Reject a NaN/inf node voltage where it enters the solver.

    Inside, a non-finite voltage surfaces only as an opaque failure: an
    out-of-range device-table index, or every fallback tier failing.
    """
    if not math.isfinite(value):
        raise ValueError(f"{role} for node {name!r} is {value}, not a finite voltage")


def _initial_vector(system: MnaSystem, initial_guess: dict[str, float] | None) -> np.ndarray:
    x0 = np.zeros(system.size)
    if initial_guess:
        for name, value in initial_guess.items():
            try:
                idx = system.circuit.index_of(name)
            except KeyError:
                raise ValueError(
                    f"initial guess names node {name!r}, which does not exist "
                    "in this circuit — was it carried over from a different "
                    "circuit?"
                ) from None
            _check_finite_voltage("initial guess", name, value)
            if idx >= 0:
                x0[idx] = value
    return x0


def _seed_vector(system: MnaSystem, x0) -> np.ndarray:
    """Validate and normalize a warm-start seed.

    Accepts a full solution vector or an :class:`OperatingPoint`.  An
    operating point carries its circuit, so it is fingerprint-checked
    (node names and source count, not just vector size) against the
    system being solved: two same-sized circuits with different nets
    would otherwise silently bias the solve toward a foreign solution.
    Same-fingerprint *instances* (e.g. Monte-Carlo samples of one cell)
    remain valid seeds — that is the corners/variation reuse idiom.
    """
    if isinstance(x0, OperatingPoint):
        seed_circuit = x0.circuit
        target = system.circuit
        if seed_circuit is not target and (
            seed_circuit.node_names != target.node_names
            or len(seed_circuit.voltage_sources) != len(target.voltage_sources)
        ):
            raise ValueError(
                "warm-start operating point comes from a different circuit "
                f"(seed nodes {seed_circuit.node_names}, "
                f"target nodes {target.node_names})"
            )
        x0 = x0.x
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (system.size,):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected ({system.size},)"
        )
    bad = np.flatnonzero(~np.isfinite(x0))
    if bad.size:
        k = int(bad[0])
        if k < system.n_nodes:
            what = f"node {system.circuit.node_names[k]!r}"
        else:
            source = system.circuit.voltage_sources[k - system.n_nodes]
            what = f"the branch current of voltage source {source.name!r}"
        raise ValueError(f"warm-start seed for {what} is {x0[k]}, not finite")
    return x0


def _tier_converged(tel, tier: str, t: float) -> None:
    if tel is not None:
        tel.count(f"dcop.converged.{tier}")
        tel.event("dcop.converged", level="debug", tier=tier, sim_time=t)


def solve_dc_gen(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    clamp_nodes: dict[str, float] | None = None,
    options: SolverOptions | None = None,
    t: float = 0.0,
    system: MnaSystem | None = None,
    x0: np.ndarray | OperatingPoint | None = None,
):
    """Generator form of :func:`solve_dc`: the DC escalation ladder."""
    options = options or SolverOptions()
    if system is None:
        # The dense class is passed through the module global so tests
        # and benchmarks that monkeypatch ``dcop.MnaSystem`` (e.g. to
        # ReferenceMnaSystem) keep controlling the assembler.
        system = make_system(
            circuit,
            matrix_format=options.matrix_format,
            sparse_threshold=options.sparse_threshold,
            dense_cls=MnaSystem,
        )
    for name, target in (clamp_nodes or {}).items():
        _check_finite_voltage("clamp target", name, target)
    clamps = tuple(
        VoltageClamp(circuit.index_of(name), target)
        for name, target in (clamp_nodes or {}).items()
        if circuit.index_of(name) >= 0
    )
    # The first tier is a warm start when the caller guessed at the
    # operating point: an ``x0``, or an ``initial_guess`` naming a node
    # the clamps do not pin.  A transient's initial conditions arrive as
    # both guess and clamps; alone they seed the solve but guess nothing.
    guessed = x0 is not None or bool(set(initial_guess or ()) - set(clamp_nodes or ()))
    if x0 is None:
        x0 = _initial_vector(system, initial_guess)
    else:
        x0 = _seed_vector(system, x0)

    tel = telemetry.active()
    if tel is not None:
        tel.count("dcop.solves")

    first_tier = "warm_start" if guessed else "cold_start"
    warm = bool(np.any(x0 != 0.0))
    try:
        x, _ = yield from newton_gen(system, x0, t, options, clamps=clamps)
        _tier_converged(tel, first_tier, t)
        return OperatingPoint(circuit, x, options.gmin)
    except ConvergenceError:
        pass

    # A bad warm start can trap the iteration in a local residual
    # minimum of the TFET reverse branch (node driven above a rail);
    # the all-zeros start approaches every junction from the forward
    # side and avoids the pocket.
    if warm:
        try:
            x, _ = yield from newton_gen(
                system, np.zeros(system.size), t, options, clamps=clamps
            )
            _tier_converged(tel, "cold_start", t)
            return OperatingPoint(circuit, x, options.gmin)
        except ConvergenceError:
            pass

    # gmin stepping: relax with a strong shunt, then tighten it away.
    x = x0.copy()
    try:
        for extra in np.geomspace(1e-2, 1e-12, 11):
            x, _ = yield from newton_gen(
                system, x, t, options, clamps=clamps, extra_gmin=extra
            )
        x, _ = yield from newton_gen(system, x, t, options, clamps=clamps)
        _tier_converged(tel, "gmin_stepping", t)
        return OperatingPoint(circuit, x, options.gmin)
    except ConvergenceError:
        pass

    # Source stepping: ramp all independent sources from zero.
    x = np.zeros(system.size)
    try:
        for scale in np.linspace(0.1, 1.0, 10):
            x, _ = yield from newton_gen(
                system, x, t, options, clamps=clamps, source_scale=scale
            )
    except ConvergenceError as exc:
        if tel is not None:
            tel.count("dcop.failures")
            tel.event("dcop.failure", level="error", sim_time=t, **{
                k: v for k, v in exc.forensics.items() if k != "worst_residual_nodes"
            })
        raise ConvergenceError(
            "DC operating point failed after every fallback tier",
            forensics={"fallback_tier": "source_stepping", **exc.forensics},
        ) from exc
    _tier_converged(tel, "source_stepping", t)
    return OperatingPoint(circuit, x, options.gmin)


def solve_dc(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    clamp_nodes: dict[str, float] | None = None,
    options: SolverOptions | None = None,
    t: float = 0.0,
    system: MnaSystem | None = None,
    x0: np.ndarray | OperatingPoint | None = None,
) -> OperatingPoint:
    """DC operating point with gmin- and source-stepping fallbacks.

    ``clamp_nodes`` adds stiff Norton clamps pinning nodes at the given
    voltages — the supported way to select one state of a bistable
    cell.  The clamps stay active in the returned solution, so release
    them (or hand the solution to the transient integrator, which does)
    before interpreting branch currents that the clamps might carry.

    Sweep and bisection loops that solve the same circuit repeatedly
    pass ``system`` (a prebuilt :class:`MnaSystem`, skipping stamp
    recompilation) and/or ``x0`` (a full previous solution — either a
    raw vector including branch currents or, preferably, the previous
    :class:`OperatingPoint`, which is fingerprint-validated against
    this circuit's node names — overriding ``initial_guess``) to
    warm-start each point from the last one.  A seed from a circuit
    with a different net list raises :class:`ValueError` rather than
    silently biasing the solve.

    Escalation tiers (telemetry counters ``dcop.converged.<tier>`` tell
    which one succeeded): ``warm_start`` (the first try, from the
    caller's guess: ``x0``, or ``initial_guess`` at a node the clamps do
    not pin), ``cold_start`` (the first try without a guess, or the
    all-zeros restart after a guess failed), ``gmin_stepping``,
    ``source_stepping``.  With telemetry on, the solve is one ``dcop``
    span.
    """
    gen = solve_dc_gen(circuit, initial_guess, clamp_nodes, options, t, system, x0)
    tel = telemetry.active()
    if tel is None:
        return drive(gen)
    with tel.span("dcop"):
        return drive(gen)
