"""The invariant checks behind :mod:`repro.verify`.

Each audit takes the active :class:`~repro.verify.core.VerifySession`
plus the accepted result it re-checks, and reports violations through
:meth:`~repro.verify.core.VerifySession.record_violation` (which raises
unless the session runs in collection mode).  The audits deliberately
avoid the optimized code paths they police: reference quantities come
from the retained seed implementations
(:class:`repro.circuit.mna_reference.ReferenceMnaSystem`,
``CubicTable2D._evaluate_inside_reference``), reached lazily through
the session so this module imports nothing from :mod:`repro.circuit`
at import time (the hooks in ``dcop``/``transient``/``tables`` import
this module, and those modules are themselves imported while the
``repro.circuit`` package initializes).

Tolerances are relative to the natural scale of each quantity — the
solver's residual tolerance for KCL, the largest capacitor charge for
the charge balance, the patch magnitude for table outputs — so the
same defaults hold from femtoamp leakage studies to write transients.
"""

from __future__ import annotations

import numpy as np

from repro.verify.core import VerifySession

__all__ = [
    "audit_newton_solution",
    "audit_transient_step",
    "audit_table",
]


def audit_newton_solution(
    session: VerifySession,
    system,
    x: np.ndarray,
    t: float,
    *,
    gmin: float,
    transient,
    clamps,
    source_scale: float,
    residual_tolerance: float,
) -> None:
    """Re-check one converged Newton solution.

    Two invariants:

    * **KCL** — the *reference* assembler's residual at the accepted
      ``x`` must still satisfy the solver tolerance (times
      ``kcl_margin``).  Catches solutions accepted off a stale device
      cache or a wrong stamp: the optimized residual said "converged"
      but the real circuit equations disagree.
    * **Equivalence** — the optimized residual at the same point must
      match the reference residual.  Localizes a KCL failure to the
      assembler (stamping bug) rather than the solver (acceptance bug).

    Plus, when enabled and due, the finite-difference **Jacobian
    probe** (see :func:`_audit_jacobian`).
    """
    options = session.options
    if options.kcl_audit:
        session.count("kcl")
        reference = session.reference_for(system)
        f_ref = reference.assemble_residual(
            x, t, gmin=gmin, transient=transient, clamps=clamps,
            source_scale=source_scale,
        )
        worst = float(np.max(np.abs(f_ref))) if f_ref.size else 0.0
        limit = options.kcl_margin * residual_tolerance
        if not worst <= limit:  # NaN-safe: NaN comparisons are False
            node = int(np.argmax(np.abs(f_ref)))
            session.record_violation(
                "kcl",
                "accepted solution violates reference KCL",
                {
                    "max_residual": worst,
                    "limit": limit,
                    "worst_row": node,
                    "sim_time": float(t),
                },
            )
        f_opt = system.assemble_residual(
            x, t, gmin=gmin, transient=transient, clamps=clamps,
            source_scale=source_scale,
        )
        session.count("equivalence")
        diff = float(np.max(np.abs(f_opt - f_ref))) if f_ref.size else 0.0
        scale = 1.0 + worst
        if not diff <= options.equivalence_tolerance * scale:
            node = int(np.argmax(np.abs(f_opt - f_ref)))
            session.record_violation(
                "equivalence",
                "optimized and reference residuals disagree",
                {
                    "max_difference": diff,
                    "tolerance": options.equivalence_tolerance * scale,
                    "worst_row": node,
                    "sim_time": float(t),
                },
            )
    if options.jacobian_audit and session.jacobian_due():
        _audit_jacobian(
            session, system, x, t, gmin=gmin, transient=transient,
            clamps=clamps, source_scale=source_scale,
        )


def _audit_jacobian(
    session: VerifySession,
    system,
    x: np.ndarray,
    t: float,
    *,
    gmin: float,
    transient,
    clamps,
    source_scale: float,
) -> None:
    """Stamped Jacobian vs central finite differences of the reference
    residual.

    Catches wrong derivative stamps (sign flips, missing gm/gds terms,
    companion-conductance errors) that a residual audit cannot see —
    they bend Newton's path without moving its fixed point.  Costs
    ``2 * size`` reference assemblies; gated by ``jacobian_interval``.
    A sparse system's Jacobian is compared densified.
    """
    options = session.options
    session.count("jacobian")
    reference = session.reference_for(system)
    _, jac = system.assemble(
        x, t, gmin=gmin, transient=transient, clamps=clamps,
        source_scale=source_scale, copy=True,
    )
    if not isinstance(jac, np.ndarray):
        jac = jac.toarray()
    eps = options.jacobian_step
    fd = np.empty_like(jac)
    probe = x.copy()
    for k in range(x.size):
        probe[k] = x[k] + eps
        f_plus = reference.assemble_residual(
            probe, t, gmin=gmin, transient=transient, clamps=clamps,
            source_scale=source_scale,
        )
        probe[k] = x[k] - eps
        f_minus = reference.assemble_residual(
            probe, t, gmin=gmin, transient=transient, clamps=clamps,
            source_scale=source_scale,
        )
        probe[k] = x[k]
        fd[:, k] = (f_plus - f_minus) / (2.0 * eps)
    # Entrywise relative tolerance, floored by the finite-difference
    # noise scale (assembly roundoff / eps plus truncation on the
    # strongly curved TFET characteristics).
    magnitude = np.abs(jac) + np.abs(fd)
    floor = 1e-9 * (1.0 + float(np.max(magnitude, initial=0.0)))
    allowed = options.jacobian_tolerance * magnitude + floor
    excess = np.abs(fd - jac) - allowed
    if not np.all(excess <= 0.0):  # NaN-safe
        row, col = np.unravel_index(int(np.nanargmax(excess)), excess.shape)
        session.record_violation(
            "jacobian",
            "stamped Jacobian disagrees with finite differences",
            {
                "row": int(row),
                "col": int(col),
                "stamped": float(jac[row, col]),
                "finite_difference": float(fd[row, col]),
                "sim_time": float(t),
            },
        )


def audit_transient_step(
    session: VerifySession,
    system,
    x_prev: np.ndarray,
    x_new: np.ndarray,
    state,
    charges_new: np.ndarray,
    currents_new: np.ndarray,
) -> None:
    """Charge-conservation audit of one accepted transient step.

    ``state`` is the companion-model state the step was solved with
    (previous charges/currents, the step actually taken); ``charges_new``
    and ``currents_new`` are the integrator's stored values for the new
    point — the ones the *next* step will build its companion model on.

    Three invariants, all against from-scratch reference evaluations:

    * the stored previous charges match ``q(x_prev)`` — a stale
      capacitor cache here silently injects or destroys charge;
    * the stored new charges/currents match ``q(x_new)`` /
      ``i(x_new, state)``;
    * the companion-model charge balance holds: ``Δq = h·i`` (backward
      Euler) or ``Δq = h·(i_new + i_prev)/2`` (trapezoid), i.e. the
      charge delivered to each capacitor equals the integral of its
      companion current over the step.
    """
    options = session.options
    if not options.charge_audit:
        return
    session.count("charge")
    reference = session.reference_for(system)
    q_prev_ref = reference.capacitor_charges(x_prev)
    if not q_prev_ref.size:
        return
    q_new_ref = reference.capacitor_charges(x_new)
    i_new_ref = reference.capacitor_currents(x_new, state)
    h = state.timestep
    scale_q = max(
        float(np.max(np.abs(q_prev_ref))),
        float(np.max(np.abs(q_new_ref))),
        h * float(np.max(np.abs(i_new_ref))),
        1e-24,  # ~6 electrons: below this, "charge" is numerical dust
    )
    tolerance = options.charge_tolerance

    checks = (
        ("stored previous charges", state.capacitor_charges, q_prev_ref, scale_q),
        ("stored new charges", charges_new, q_new_ref, scale_q),
        ("stored companion currents", currents_new, i_new_ref, scale_q / h),
    )
    for label, stored, ref, scale in checks:
        diff = float(np.max(np.abs(stored - ref)))
        if not diff <= tolerance * scale:
            session.record_violation(
                "charge",
                f"{label} disagree with reference evaluation",
                {"max_difference": diff, "tolerance": tolerance * scale,
                 "cap": int(np.argmax(np.abs(stored - ref)))},
            )

    if state.method == "trapezoidal":
        i_eff = 0.5 * (np.asarray(currents_new) + np.asarray(state.capacitor_currents))
    else:
        i_eff = np.asarray(currents_new)
    balance = q_new_ref - q_prev_ref - h * i_eff
    worst = float(np.max(np.abs(balance)))
    if not worst <= tolerance * scale_q:
        session.record_violation(
            "charge",
            "companion-model charge balance violated",
            {"max_imbalance": worst, "tolerance": tolerance * scale_q,
             "cap": int(np.argmax(np.abs(balance)))},
        )


def audit_table(session: VerifySession, table, x: np.ndarray, y: np.ndarray) -> None:
    """Baked-coefficient table evaluation vs the retained seed kernel.

    Both kernels evaluate at ``x``/``y`` clamped into the table domain:
    the tangent-plane continuation applied outside and the drain shape
    are shared arithmetic, so comparing the in-domain stage of the
    shared kernel (:func:`repro.devices.tables.evaluate_stacked`, the
    code every scalar and stacked device evaluation runs) with the seed
    kernel covers the optimized surface.
    """
    session.count("table")
    optimized = table._evaluate_inside(x, y)
    reference = table._evaluate_inside_reference(x, y)
    tolerance = session.options.table_tolerance
    # Both kernels contract the same 4x4 sample patch, so their
    # roundoff is relative to the *patch* magnitude — with derivative
    # components amplified by the inverse grid steps — not to each
    # component's own (possibly near-zero) value.
    base = max(float(np.max(np.abs(table.values))), 1e-30)
    inv_hx = 1.0 / table.x_grid.step
    inv_hy = 1.0 / table.y_grid.step
    scales = (base, base * inv_hx, base * inv_hy, base * inv_hx * inv_hy)
    for label, opt, ref, scale in zip(("f", "fx", "fy", "fxy"), optimized, reference, scales):
        diff = float(np.max(np.abs(np.asarray(opt) - np.asarray(ref)), initial=0.0))
        if not diff <= tolerance * scale:
            session.record_violation(
                "table",
                f"baked-coefficient kernel disagrees with seed kernel on {label}",
                {"max_difference": diff, "tolerance": tolerance * scale},
            )
