"""Stacked-batch SPICE: K same-topology variants solved as one block.

Monte-Carlo campaigns and parameter sweeps solve many *variants of one
topology* — same nodes, same stamps, different device tables, widths
or waveforms — and the scalar path pays the full python/numpy dispatch
overhead of every assembly once per variant.  This module removes that
multiplier.  The solver control flow (Newton damping, line search,
jacobian reuse, transient step control, DC fallback tiers, the WL_crit
bisection above them) exists once, as generators that suspend at every
residual/Jacobian request (:func:`repro.circuit.dcop.newton_gen` /
``solve_dc_gen``, :func:`repro.circuit.transient.transient_gen`,
:meth:`repro.analysis.stability.WlCritSearch.search_gen`).  The scalar
entry points drive one generator each (:func:`repro.circuit.dcop.drive`,
a batch of one).  :func:`run_generators` drives many: it collects the
suspended requests each tick and serves them with one batched assembly
over a ``(K, size)`` state block.  This module holds only that stacked
assembler and its driver.

Each stamp kind is a fixed number of numpy calls over the whole block,
whatever K is: one stacked mat-vec for the linear elements, masked adds
for gmin (members with gmin = 0 get no stamp), one block subtraction
for the voltage sources, and one ``np.add.at`` per kind for clamps,
current sources, transistors and capacitors (each member's own scatter
indices, offset to its row, in the member's own order; f and J share
one buffer, so a kind that lands in both is one scatter).  What still
loops over the members is reading their requests, sampling their
sources (each system keeps its own ``(t, waveform identity)`` cache,
:meth:`MnaSystem._source_values`) and handing out the answers.  Each
model family is one device call per tick: the stale rows' table-backed
devices go through one table-kernel call, and their MOSFET devices,
whatever their cards, through one call of a stacked card
(:meth:`repro.devices.mosfet.MosfetModel.stacked`).

Bit-exactness is the design contract, not an aspiration: every batched
stamp replicates the scalar assembly expression-for-expression (same
operation order, same elementwise arithmetic), the device tables run
the very kernel the scalar tables run
(:func:`repro.devices.tables.evaluate_stacked`), and the MOSFETs run
the scalar EKV expressions, elementwise on per-device parameters, so a
batch of any size produces solution vectors bit-identical to the
scalar path.  The linear
stamp needs care: ``np.matmul(LIN, X[:, :, None])`` on the stacked
``(K, n, n)`` block runs one gemv per member, the kernel of the scalar
``np.matmul(lin, x)``, and is bytes-equal to it; the single dgemm
``X @ LIN.T`` is *not* (both measured; ``tests/circuit/test_batch.py``
pins the first).  ``repro.verify`` leans on this — batch members can be
audited by re-running them scalar and comparing exactly.

Members must share node, branch, transistor and current-source counts
and the capacitor wiring (nodes, kinds, p-mirroring); anything else may
differ per member: device tables and models (table-backed or
:class:`~repro.devices.mosfet.MosfetModel`; planning a member with any
other model raises :class:`TypeError`), widths, capacitor charge
parameters and scale (the device width, so a β sweep is one batch),
source waveforms, and each request's time, gmin, clamps, integration
method and source scale.

The two drivers differ only in how they assemble; what that changes is
deliberate and value-neutral:

* the Jacobian block is assembled every tick for every live member,
  residual-only (line search) requests included, and handed back with
  the residual: a generator may use it until its next yield, so
  ``newton_gen`` factorizes the one at its accepted line-search point
  when it re-stamps there instead of asking again (the scalar driver
  answers residual requests without a Jacobian and assembles it anew);
* ``tables.evals``/``tables.eval_points`` telemetry counters are not
  incremented (the registry calls the table kernel directly, not
  through ``CubicTable2D.evaluate``); ``batch.table_points`` counts the
  stacked evaluations instead;
* telemetry spans exist only at the public scalar entry points
  (``solve_dc``, ``simulate_transient``), never inside a generator:
  under cooperative scheduling a member's span would interleave with
  every other member's, so a batch records counters but no spans.

``verify`` in-loop audits run inside the generators against each
request's own scalar :class:`MnaSystem`, so enabling a verify session
inside a batch is supported (the engine instead audits whole members by
scalar re-run).

Members advance at their own pace — a member that converges early
leaves the batch, shrinking the active block; a member that raises
(e.g. :class:`ConvergenceError`) is recorded as failed and the rest
continue.  The engine layer retries failed members on the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.mna import MnaSystem, logistic_step_charges
from repro.devices.mosfet import MosfetModel
from repro.devices.tables import CurrentTable, evaluate_stacked
from repro.telemetry import core as telemetry

__all__ = ["MemberOutcome", "run_generators"]


@dataclass
class MemberOutcome:
    """Terminal state of one batch member."""

    status: str  # "ok" | "error"
    value: object = None
    error: BaseException | None = field(default=None, repr=False)


# An assembly request, yielded by the solver generators:
#   (system, x, t, gmin, transient, clamps, source_scale, want_jac)
# The driver answers with (f, jac) — f a row of the tick's own copy of
# the residual block (no later tick writes it), jac a view into the
# tick buffer, valid until the generator's next yield, whatever
# want_jac asked for.


class _TableRegistry:
    """Concatenated per-cell coefficients of every distinct device table.

    Distinct :class:`CurrentTable` objects seen across the batch are
    stacked (coefficient blocks concatenated, per-table grid parameters
    gathered per point), so one kernel call evaluates devices from any
    mix of Monte-Carlo variants.  The memory bound is the number of
    distinct quantized oxide scales (±5 % at quantum 0.0025 → ≤ 41
    tables), each of which already lives in the lru-cached models.
    """

    def __init__(self):
        self._index: dict[int, int] = {}
        self._currents: list[CurrentTable] = []
        self._dirty = True

    def slot_of(self, current_table: CurrentTable) -> int:
        key = id(current_table)
        slot = self._index.get(key)
        if slot is None:
            slot = len(self._currents)
            self._index[key] = slot
            self._currents.append(current_table)
            self._dirty = True
        return slot

    def _rebuild(self) -> None:
        tables = [ct._table for ct in self._currents]
        self._coeffs = np.concatenate([t._coeffs for t in tables])
        counts = [t._coeffs.shape[0] for t in tables]
        base = np.concatenate([[0], np.cumsum(counts[:-1])])
        # Per-table parameters side by side, one column per table, so a
        # call gathers them per point with one take per dtype.  Rows:
        # lo, hi, inv (x and y each), shape voltage; top (x and y),
        # stride, base.
        self._real = np.hstack([
            np.vstack((t._lo, t._hi, t._inv, [[ct.shape_voltage]]))
            for ct, t in zip(self._currents, tables)
        ])
        self._ints = np.hstack([
            np.vstack((t._top, [[t._stride]], [[b]])).astype(np.intp)
            for t, b in zip(tables, base)
        ])
        self._dirty = False

    def evaluate(
        self, tbl: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`CurrentTable.evaluate` of table ``tbl[k]`` at each point.

        One call of the shared kernel
        (:func:`repro.devices.tables.evaluate_stacked`) with every grid
        parameter gathered per point, so the values are bit-identical
        to evaluating each point through its own table.
        """
        if self._dirty:
            self._rebuild()
        real = self._real[:, tbl]
        ints = self._ints[:, tbl]
        return evaluate_stacked(
            self._coeffs, np.array((vgs, vds)), real[0:2], real[2:4], real[4:6],
            ints[0:2], ints[2], ints[3], real[6],
        )


class _MemberPlan:
    """Per-(slot, system) stamping plan in the system's own layout.

    Group partition is by model *identity*, so two Monte-Carlo variants
    of one topology can flatten their transistors in different orders
    (shared quantized-scale models group differently).  The plan
    therefore carries the member's own per-device arrays and the
    member's own scatter index arrays — never another member's.

    Devices are table-backed (``t_tbl``, a registry slot) or MOSFETs
    (``t_mos``, their single cards in device order); any other model
    raises :class:`TypeError`.
    """

    __slots__ = (
        "system", "lin", "vs_waves", "t_tbl", "t_mos", "t_sign", "t_width",
        "t_d", "t_g", "t_s",
    )

    def __init__(self, system: MnaSystem, registry: _TableRegistry):
        self.system = system
        self.lin = system._lin  # identity tracks invalidate_caches()
        self.vs_waves = system._vs_waves
        n_t = system._t_count
        self.t_tbl = np.full(n_t, -1, dtype=np.intp)
        self.t_sign = np.empty(n_t)
        self.t_width = np.empty(n_t)
        self.t_d = np.zeros(n_t, dtype=np.intp)
        self.t_g = np.zeros(n_t, dtype=np.intp)
        self.t_s = np.zeros(n_t, dtype=np.intp)
        for model, at, sign, width, d, g, s in system._t_groups:
            self.t_sign[at] = sign
            self.t_width[at] = width
            self.t_d[at] = d
            self.t_g[at] = g
            self.t_s[at] = s
            table = getattr(model, "table", None)
            if isinstance(table, CurrentTable):
                self.t_tbl[at] = registry.slot_of(table)
            elif type(model) is not MosfetModel:
                raise TypeError(
                    "a stacked batch evaluates table-backed and MOSFET models, "
                    f"not {type(model).__name__}"
                )
        self.t_mos = system._mos_cards


def _by_row(parts: list[np.ndarray], stride: int) -> np.ndarray:
    """Member ``i``'s own index array offset by ``i * stride``, all
    members concatenated: one scatter over the flattened block that
    applies each member's stamps in the member's own order."""
    return np.concatenate([i * stride + p for i, p in enumerate(parts)]).astype(np.intp)


class _Layout:
    """Buffers and row-offset index arrays for one active set.

    Valid while the active members, their order, and each member's plan
    are unchanged; the driver rebuilds it on any change (bounded by the
    number of simulations run, not by tick count).  Device-evaluation
    caches live in the layout rows and reset on rebuild — a cache miss
    only re-evaluates pure functions, so resets never change results.
    """

    def __init__(self, plans: list[_MemberPlan]):
        self.plans = plans
        systems = [p.system for p in plans]
        first = systems[0]
        self.n = n = first.n_nodes
        self.size = size = first.size
        self.n_t = n_t = first._t_count
        bank = first._caps
        self.n_c = n_c = len(bank)
        n_is = first._is_values.size
        for sys in systems:
            if (
                sys.n_nodes != n
                or sys.size != size
                or sys._t_count != n_t
                or sys._is_values.size != n_is
                or len(sys._caps) != n_c
            ):
                raise ValueError("batch members must share one topology")

        self.K = K = len(plans)
        rows = np.arange(K, dtype=np.intp)
        self.X = np.zeros((K, size))
        self.XG = np.zeros((K, n + 1))
        self.XGr = self.XG.reshape(-1)
        # Every member's f, then every member's J, in one buffer: a
        # stamp kind that lands in both is one scatter over FJ.
        self.FJ = np.zeros(K * size * (size + 1))
        self.Fr = self.FJ[: K * size]
        self.F = self.Fr.reshape(K, size)
        self.JACr = self.FJ[K * size:]
        self.JAC = self.JACr.reshape(K, size, size)
        self.JAC2 = self.JACr.reshape(K, size * size)
        self.LIN = np.array([sys._lin for sys in systems])
        # Views of every row's node and branch equations in f and node
        # diagonal in J.
        self.Fn = self.F[:, :n]
        self.Fb = self.F[:, n:]
        self.DIAG = self.JAC2[:, :: size + 1][:, :n]

        self.is_idx = _by_row([sys._is_idx for sys in systems], size)
        self.is_sign = np.concatenate([sys._is_sign for sys in systems])
        self.is_val = _by_row([sys._is_member for sys in systems], n_is)
        self.is_row = np.repeat(rows, [sys._is_idx.size for sys in systems])

        if n_t:
            # Source, gate and drain of every device, offset to its row of XG.
            self.SGD = (rows * (n + 1))[:, None] + np.array(
                [[p.t_s for p in plans], [p.t_g for p in plans], [p.t_d for p in plans]]
            )
            self.SIGN = np.array([p.t_sign for p in plans])
            width = np.array([p.t_width for p in plans])
            # Multipliers of (gds, gm, j): width, width and the scalar's
            # sign * width.
            self.MUL = np.array((width, width, self.SIGN * width))
            self.TBL = np.array([p.t_tbl for p in plans])
            self.TAB = self.TBL >= 0
            # Every device that is not table-backed is a MOSFET (the
            # plans refuse other models).  Every member's MOSFET devices
            # sit on one stacked card in row-major (member, device)
            # order: MOS_AT is a device's position on the card.
            cards = [card for p in plans for card in p.t_mos]
            self.n_mos = len(cards)
            if cards:
                self.MOS = ~self.TAB
                self.MOS_AT = np.cumsum(self.MOS.reshape(-1)) - 1
                self.mos_card = MosfetModel.stacked(cards)
            # Per device (gds, gm, j) as evaluated, and the stamped
            # coefficients: gds, gm, drain current and gm + gds.
            self.R = np.zeros((3, K, n_t))
            self.R2 = self.R.reshape(3, K * n_t)
            self.COEF = np.zeros((4, K, n_t))
            self.COEFr = self.COEF.reshape(-1)
            kn = K * n_t
            row_of_kind = np.array([0, 1, 3]) * kn  # the scalar's gds, gm, sum
            # The f scatter, then the J scatter, as one.
            self.t_dst = np.concatenate((
                _by_row([sys._tf_idx for sys in systems], size),
                K * size + _by_row([sys._tj_flat for sys in systems], size * size),
            ))
            self.t_sign = np.concatenate(
                [sys._tf_sign for sys in systems] + [sys._tj_sign for sys in systems]
            )
            self.t_coef = np.concatenate((
                2 * kn + _by_row([sys._tf_member for sys in systems], n_t),
                _by_row([row_of_kind[sys._tj_kind] + sys._tj_member for sys in systems], n_t),
            ))
            self.T_X = np.full((K, n), np.nan)
            self.T_VALID = np.zeros(K, dtype=bool)

        if n_c:
            # Capacitor wiring (nodes, signs, kinds, mirror) is topology,
            # identical across members; the charge-model parameters and
            # the scale (the device width) are per-member rows.
            for sys in systems[1:]:
                other = sys._caps
                if not (
                    np.array_equal(other.a, bank.a)
                    and np.array_equal(other.b, bank.b)
                    and np.array_equal(other.kind, bank.kind)
                    and np.array_equal(other.mirror, bank.mirror)
                ):
                    raise ValueError("batch members must share one topology")
            self.cap_linear = bank._all_linear
            self.cap_other = bool(bank.other)
            self.cap_step = bank.step
            self.step_mirror = bank.step_params[0]
            # Terminal columns in XG (ground, -1, is the last column).
            self.cap_ab = np.array((bank.a, bank.b)) % (n + 1)
            caps = [sys._caps for sys in systems]
            # Per-member rows over every capacitor: scale * c_lin, c_lin,
            # scale, c_low, c_high - c_low, v_step, width.
            self.CP = np.array([
                [c._scaled_lin for c in caps],
                [c.c_lin for c in caps],
                [c.scale for c in caps],
                [c.c_low for c in caps],
                [c._c_span for c in caps],
                [c.v_step for c in caps],
                [c.width for c in caps],
            ])
            self.no_current = np.zeros(n_c)
            self._tr: list[int] | None = None

    def transient_rows(self, tr: list[int]) -> tuple:
        """The capacitor stamp's gathers for transient rows ``tr``.

        Recomputed only when the set of rows in transient changes: the
        XG indices of every capacitor's terminals, the rows' parameter
        blocks, a ``(2, len(tr), n_c)`` buffer for the companion
        currents and conductances, and one scatter (every row's f
        stamps, then every row's J stamps) from that buffer into FJ.
        """
        if tr != self._tr:
            first = self.plans[0].system
            size, n_c, step = self.size, self.n_c, self.cap_step
            trows = np.array(tr, dtype=np.intp)
            nt = len(tr)
            at = np.arange(nt, dtype=np.intp)[:, None] * n_c
            ab = (trows * (self.n + 1))[:, None] + self.cap_ab[:, None, :]
            params = self.CP[:, trows]
            sc_lin, c_lin, scale = params[:3]
            steps = params[2:, :, step]  # scale onwards, on the step capacitors
            src = np.concatenate((
                (at + first._cf_member).reshape(-1),
                nt * n_c + (at + first._cj_member).reshape(-1),
            ))
            dst = np.concatenate((
                ((trows * size)[:, None] + first._cf_idx).reshape(-1),
                self.K * size + ((trows * size * size)[:, None] + first._cj_flat).reshape(-1),
            ))
            sign = np.concatenate((np.tile(first._cf_sign, nt), np.tile(first._cj_sign, nt)))
            self._tr = list(tr)
            self._tr_data = (
                ab, sc_lin, c_lin, scale, steps, np.empty((2, nt, n_c)), src, dst, sign
            )
        return self._tr_data


def _stamp_clamps(layout: _Layout, clamped: list[int], clamps: tuple) -> None:
    """The clamped members' Norton clamps: one scatter into f and J."""
    size = layout.size
    f_idx, j_idx, conductance, target = [], [], [], []
    for i in clamped:
        nodes, g, v = layout.plans[i].system._clamp_arrays(clamps[i])
        f_idx.append(i * size + nodes)
        j_idx.append(layout.K * size + i * size * size + nodes * (size + 1))
        conductance.append(g)
        target.append(v)
    f_idx = np.concatenate(f_idx)
    conductance = np.concatenate(conductance)
    x = layout.X.reshape(-1)[f_idx]
    np.add.at(
        layout.FJ,
        np.concatenate((f_idx, *j_idx)),
        np.concatenate((conductance * (x - np.concatenate(target)), conductance)),
    )


def _stamp_sources_batch(layout: _Layout, ts: tuple, scales: tuple) -> None:
    """Independent sources: every member samples through its own
    system's cache (:meth:`MnaSystem._source_values`, whose arrays a
    later sample does not overwrite), then one block stamp per source
    kind."""
    VS, IV = zip(*[p.system._source_values(t) for p, t in zip(layout.plans, ts)])
    scale = np.array(scales)[:, None]
    np.subtract(layout.Fb, scale * np.array(VS), out=layout.Fb)
    if layout.is_idx.size:
        IV = np.array(IV).reshape(-1)
        np.add.at(
            layout.Fr,
            layout.is_idx,
            layout.is_sign * (scale[layout.is_row, 0] * IV[layout.is_val]),
        )


def _stamp_devices_batch(layout: _Layout, registry: _TableRegistry, tel) -> None:
    """Evaluate the stale members' transistors, then scatter everyone's.

    Terminal voltages are gathered for every row at once; only the stale
    rows' devices are evaluated (one table-kernel call and one stacked
    MOSFET call), and only their coefficients change.
    """
    n = layout.n
    X = layout.X
    stale = ~(layout.T_VALID & (X[:, :n] == layout.T_X).all(axis=1))
    V = layout.XGr.take(layout.SGD)  # source, gate, drain voltages
    # V_GS and V_DS of every (member, device), flattened row-major.
    VGDS = (layout.SIGN * (V[1:] - V[0])).reshape(2, -1)
    due = np.flatnonzero(layout.TAB & stale[:, None])  # the stale rows' table devices
    if due.size:
        vgs, vds = VGDS[:, due]
        j, gm, gds = registry.evaluate(layout.TBL.take(due), vgs, vds)
        layout.R2[:, due] = (gds, gm, j)
        if tel is not None:
            tel.count("batch.table_points", int(due.size))
    if layout.n_mos:
        due = np.flatnonzero(layout.MOS & stale[:, None])  # their MOSFET devices
        if due.size:
            card = layout.mos_card
            if due.size < layout.n_mos:
                card = card.take(layout.MOS_AT.take(due))
            vgs, vds = VGDS[:, due]
            j, gm, gds = card.evaluate_density(vgs, vds)
            layout.R2[:, due] = (gds, gm, j)
    rows = stale[:, None]
    COEF = layout.COEF
    np.multiply(layout.MUL, layout.R, out=COEF[:3], where=rows)
    np.add(COEF[1], COEF[0], out=COEF[3])
    np.copyto(layout.T_X, X[:, :n], where=rows)
    layout.T_VALID |= stale
    np.add.at(layout.FJ, layout.t_dst, layout.t_sign * layout.COEFr.take(layout.t_coef))


def _stamp_capacitors_batch(layout: _Layout, tr: list[int], states: list) -> None:
    """Companion-model capacitor stamps for the members in transient.

    The charge model is :meth:`_CapacitorBank.charges_and_caps`'s: the
    linear expression everywhere, then :func:`logistic_step_charges` on
    the step capacitors' ``(members, steps)`` block, with the members'
    own parameter rows.  Backward Euler is the trapezoidal
    expression with factor 1.0 and no previous current: ``1.0 * d`` and
    ``d - 0.0`` are exact, so both methods share one block expression
    and stay bit-identical to :meth:`MnaSystem._stamp_capacitors`.

    Each member's ``(v, q, c)`` rows are left in its system's last-point
    cache, as the scalar stamp leaves its own: the integrator's
    post-step ``capacitor_charges`` at the point this tick solved for is
    then a cache hit on these same values.
    """
    ab, sc_lin, c_lin, scale, steps, B, src, dst, sign = layout.transient_rows(tr)
    V = np.subtract(*layout.XGr.take(ab))
    if layout.cap_linear:
        Q = sc_lin * V
        C = sc_lin
    else:
        step = layout.cap_step
        s_scale, c_low, c_span, v_step, width = steps
        q_step, c_step = logistic_step_charges(
            V[:, step], layout.step_mirror, c_low, c_span, v_step, width
        )
        Q = scale * (c_lin * V)
        Q[:, step] = s_scale * q_step
        C = scale * c_lin
        C[:, step] = s_scale * c_step

    HF = np.array([(s.timestep, 2.0 if s.method == "trapezoidal" else 1.0) for s in states])
    zero = layout.no_current
    QS = np.array([
        (s.capacitor_charges, s.capacitor_currents if s.method == "trapezoidal" else zero)
        for s in states
    ])
    H, factor = HF[:, :1], HF[:, 1:]
    np.subtract(factor * (Q - QS[:, 0]) / H, QS[:, 1], out=B[0])  # companion currents
    np.divide(factor * C, H, out=B[1])  # companion conductances
    np.add.at(layout.FJ, dst, sign * B.reshape(-1).take(src))
    for row, i in enumerate(tr):
        sys = layout.plans[i].system
        sys._c_v, sys._c_q, sys._c_c = V[row], Q[row], C[row]
        sys._c_valid = True


def _assemble_tick(layout: _Layout, reqs: list, registry: _TableRegistry, tel) -> None:
    """One batched assembly over the active set.

    ``reqs[i]`` is member i's request tuple.  Stamp order per member
    matches :meth:`MnaSystem._assemble` exactly: linear, gmin, clamps,
    voltage sources, current sources, transistors, capacitors.
    """
    n = layout.n
    X = layout.X
    F = layout.F
    _, xs, ts, gmins, transients, clamps, scales, _ = zip(*reqs)
    X[...] = xs
    layout.XG[:, :n] = X[:, :n]

    # Linear elements: the stacked mat-vec is one gemv per member, the
    # scalar path's kernel (the single dgemm X @ LIN.T is NOT
    # bit-identical to it — measured, not guessed).
    np.matmul(layout.LIN, X[:, :, None], out=F[:, :, None])
    np.copyto(layout.JAC, layout.LIN)

    # gmin == 0 stamps nothing, as on the scalar path (-0.0 + 0.0 is +0.0).
    gmin = np.array(gmins)[:, None]
    on = gmin > 0.0
    np.add(layout.Fn, gmin * X[:, :n], out=layout.Fn, where=on)
    np.add(layout.DIAG, gmin, out=layout.DIAG, where=on)

    clamped = [i for i, c in enumerate(clamps) if c]
    if clamped:
        _stamp_clamps(layout, clamped, clamps)

    _stamp_sources_batch(layout, ts, scales)

    if layout.n_t:
        _stamp_devices_batch(layout, registry, tel)

    if layout.n_c:
        tr = [i for i, s in enumerate(transients) if s is not None]
        if tr:
            if layout.cap_other:
                # Exotic charge functions: the vectorized bank falls
                # back per member, exactly like the scalar assembler,
                # at the block's dense indices (a sparse member's own
                # ``_cj_dst`` are CSC data slots).
                for i in tr:
                    sys = layout.plans[i].system
                    sys._stamp_capacitors(
                        X[i], F[i], layout.JAC2[i], sys._cj_flat, transients[i], True
                    )
            else:
                _stamp_capacitors_batch(layout, tr, [transients[i] for i in tr])


def run_generators(gens: list) -> list[MemberOutcome]:
    """Drive solver generators to completion, batching their assembly.

    Each generator yields assembly requests and receives ``(f, jac)``
    answers; the driver advances every live member once per tick and
    serves all parked requests with one stacked assembly.  A generator's
    return value becomes its outcome's ``value``; an uncaught exception
    (most commonly :class:`ConvergenceError`) becomes an ``"error"``
    outcome without disturbing the other members.  Outcomes are
    returned in input order.
    """
    tel = telemetry.active()
    registry = _TableRegistry()
    results: list[MemberOutcome | None] = [None] * len(gens)
    active: list[list] = []  # [position, generator, request, plan]
    for pos, gen in enumerate(gens):
        try:
            req = gen.send(None)
        except StopIteration as stop:
            results[pos] = MemberOutcome("ok", stop.value)
        except Exception as exc:
            results[pos] = MemberOutcome("error", error=exc)
        else:
            active.append([pos, gen, req, None])
    if tel is not None:
        tel.count("batch.runs")
        tel.count("batch.members", len(gens))

    layout = None
    layout_key = None
    while active:
        # A slot's plan is rebuilt when its request names another system
        # (a member moving on to its next simulation) or the system
        # recompiled its stamps (invalidate_caches()).
        for entry in active:
            plan, system = entry[3], entry[2][0]
            if (
                plan is None
                or plan.system is not system
                or plan.lin is not system._lin
                or plan.vs_waves is not system._vs_waves
            ):
                entry[3] = _MemberPlan(system, registry)
        key = tuple(id(entry[3]) for entry in active)
        if key != layout_key:
            layout = _Layout([entry[3] for entry in active])
            layout_key = key
        _assemble_tick(layout, [entry[2] for entry in active], registry, tel)
        if tel is not None:
            tel.count("batch.ticks")
            tel.count("batch.member_assemblies", len(active))

        # One copy per tick; each member's residual is a row of it that
        # no later tick overwrites.  Every answer carries the member's
        # Jacobian slice, residual-only requests included.
        residuals = list(layout.F.copy())
        still = []
        for entry, f, jac in zip(active, residuals, layout.JAC):
            pos, gen = entry[0], entry[1]
            try:
                nxt = gen.send((f, jac))
            except StopIteration as stop:
                results[pos] = MemberOutcome("ok", stop.value)
            except Exception as exc:
                results[pos] = MemberOutcome("error", error=exc)
            else:
                entry[2] = nxt
                still.append(entry)
        active = still
    return results
