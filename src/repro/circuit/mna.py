"""Modified nodal analysis: precompiled residual and Jacobian assembly.

Unknown vector layout: ``x = [node voltages | voltage-source branch
currents]``.  The residual is Kirchhoff's current law at every node
(current *out* of the node positive) plus the source branch equations
``v_a - v_b - V(t) = 0``.

Assembly is the innermost loop of every analysis — thousands of Newton
iterations per WL_crit bisection, millions per Monte-Carlo campaign —
so :class:`MnaSystem` *precompiles* the netlist at construction:

* linear elements (resistors, voltage-source incidence) are folded
  into one constant matrix copied into the Jacobian buffer per call,
  and their residual contribution is a single mat-vec;
* transistors are flattened into index/sign/kind arrays so the whole
  nonlinear stamp is a handful of vectorized gathers, one batched
  device-model call per model family (one per TFET table, one for
  every MOSFET whatever its card), and two ``np.add.at`` scatter-adds
  (residual and flat Jacobian);
* capacitors keep their vectorized charge evaluation and get
  precomputed scatter index arrays;
* ``f`` and the dense Jacobian live in preallocated buffers — the hot
  path allocates nothing proportional to ``size**2``.

``assemble`` returns defensive copies by default so external callers
(AC analysis, finite-difference tests) keep snapshot semantics; the
Newton solver opts into the shared Jacobian buffer with ``copy=False``
and into residual-only evaluation (line searches) with
:meth:`MnaSystem.assemble_residual`.

The pre-optimization loop-based assembler is retained verbatim in
:mod:`repro.circuit.mna_reference`; an equivalence test pins this
implementation to it at ~1e-12 on randomized circuits.

Topology is snapshotted at construction: swapping a waveform on an
existing source (as ``dc_sweep`` does) is picked up per call, and
adding/removing elements triggers an automatic recompile via a cheap
element-count guard, but rewiring an existing element to different
nodes requires a fresh :class:`MnaSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.elements import GROUND
from repro.circuit.netlist import Circuit
from repro.devices.charges import LinearCharge, MirroredCharge, SmoothStepCharge
from repro.devices.mosfet import MosfetModel

__all__ = ["VoltageClamp", "TransientState", "MnaSystem"]


@dataclass(frozen=True)
class VoltageClamp:
    """A Norton clamp pinning a node near a target voltage.

    Used to enforce initial conditions on bistable storage nodes for
    the t = 0 operating point; released for t > 0.
    """

    node: int
    target: float
    conductance: float = 1e3


@dataclass
class TransientState:
    """Companion-model state for one accepted time point.

    With ``method = "trapezoidal"`` the previous capacitor currents
    enter the companion model; backward Euler ignores them.
    """

    timestep: float
    capacitor_charges: np.ndarray
    """Charge on each capacitor (aligned with circuit.capacitors)."""

    capacitor_currents: np.ndarray | None = None
    """Capacitor currents at the previous point (trapezoidal only)."""

    method: str = "backward_euler"

    def currents(self, charges: np.ndarray) -> np.ndarray:
        """Companion-model capacitor currents at a point holding ``charges``."""
        delta = (charges - self.capacitor_charges) / self.timestep
        return 2.0 * delta - self.capacitor_currents if self.method == "trapezoidal" else delta


class _TransistorGroup:
    """Transistors sharing one device model, in circuit order.

    The reference assembler evaluates each group with one call;
    :class:`MnaSystem` evaluates every MOSFET group together.
    """

    def __init__(self, model, members):
        self.model = model
        self.drain = np.array([t.drain for t in members], dtype=np.intp)
        self.gate = np.array([t.gate for t in members], dtype=np.intp)
        self.source = np.array([t.source for t in members], dtype=np.intp)
        self.width = np.array([t.width_um for t in members])
        self.sign = np.array([1.0 if t.polarity == "n" else -1.0 for t in members])
        self.members = list(members)


def logistic_step_charges(v, mirror, c_low, c_span, v_step, width):
    """Unscaled charge and capacitance of logistic-step capacitors.

    The one expression of :class:`~repro.devices.charges.SmoothStepCharge`
    (and its mirror) shared by the scalar bank and the stacked batch,
    evaluated on the step capacitors only; arguments broadcast, so ``v``
    may be one member's voltages or a ``(members, steps)`` block.
    """
    vm = mirror * v
    x = np.minimum(np.maximum((vm - v_step) / width, -200.0), 200.0)
    softplus = width * np.logaddexp(0.0, x)
    sigmoid = 1.0 / (1.0 + np.exp(-x))
    return mirror * (c_low * vm + c_span * softplus), c_low + c_span * sigmoid


class _CapacitorBank:
    """Vectorized evaluation of all capacitors in a circuit.

    Linear and logistic-step charge functions (the two shapes the device
    models produce, plus their p-polarity mirrors) are reduced to
    parameter arrays so one assembly evaluates every capacitor with a
    handful of numpy expressions.  Unrecognized charge functions fall
    back to a per-element loop.
    """

    def __init__(self, circuit: Circuit):
        self.a = np.array([c.a for c in circuit.capacitors], dtype=np.intp)
        self.b = np.array([c.b for c in circuit.capacitors], dtype=np.intp)
        n = len(circuit.capacitors)
        self.scale = np.array([c.scale for c in circuit.capacitors])
        self.kind = np.zeros(n, dtype=np.intp)  # 0 linear, 1 step, 2 other
        self.c_lin = np.zeros(n)
        self.c_low = np.zeros(n)
        self.c_high = np.zeros(n)
        self.v_step = np.zeros(n)
        self.width = np.ones(n)
        self.mirror = np.ones(n)
        self.other: list[tuple[int, object]] = []

        for k, cap in enumerate(circuit.capacitors):
            charge = cap.charge
            mirror = 1.0
            if isinstance(charge, MirroredCharge):
                mirror = -1.0
                charge = charge.reference
            if isinstance(charge, LinearCharge):
                self.c_lin[k] = charge.capacitance_farads
            elif isinstance(charge, SmoothStepCharge):
                self.kind[k] = 1
                self.c_low[k] = charge.c_low
                self.c_high[k] = charge.c_high
                self.v_step[k] = charge.v_step
                self.width[k] = charge.width
                self.mirror[k] = mirror
            else:
                self.kind[k] = 2
                self.other.append((k, cap.charge))
        self._all_linear = bool(np.all(self.kind == 0))
        self._scaled_lin = self.scale * self.c_lin
        self._c_span = self.c_high - self.c_low
        self.step = np.flatnonzero(self.kind == 1)
        self.step_params = tuple(
            p[self.step]
            for p in (self.mirror, self.c_low, self._c_span, self.v_step, self.width)
        )
        """``(mirror, c_low, c_high - c_low, v_step, width)`` of the step
        capacitors, in :func:`logistic_step_charges` argument order."""

    def __len__(self) -> int:
        return len(self.a)

    def charges_and_caps(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Charge and capacitance for each element at branch voltages v."""
        if self._all_linear:
            # Constant capacitances need none of the logistic machinery.
            return self._scaled_lin * v, self._scaled_lin
        q = self.c_lin * v
        c = self.c_lin.copy()
        q[self.step], c[self.step] = logistic_step_charges(
            v[self.step], *self.step_params
        )
        for k, charge in self.other:
            q[k] = float(np.asarray(charge.charge(v[k])))
            c[k] = float(np.asarray(charge.capacitance(v[k])))
        return self.scale * q, self.scale * c


def _concat_intp(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(parts).astype(np.intp)


def _linear_stamp(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant linear stamp as ``(row, col, value)`` triplets.

    Resistor conductances plus voltage-source incidence, one triplet per
    stamp in element order; a repeated ``(row, col)`` sums.  Summing the
    triplets in this order starting from zero is bytes-equal to stamping
    a dense matrix element by element (a subtracted stamp is the addition
    of its negation).
    """
    n = circuit.node_count
    stamps: list[tuple[int, int, float]] = []
    for r in circuit.resistors:
        g = 1.0 / r.resistance
        for node, sign in ((r.a, 1.0), (r.b, -1.0)):
            if node == GROUND:
                continue
            if r.a != GROUND:
                stamps.append((node, r.a, sign * g))
            if r.b != GROUND:
                stamps.append((node, r.b, -(sign * g)))
    for m, src in enumerate(circuit.voltage_sources):
        row = n + m
        if src.a != GROUND:
            stamps += [(src.a, row, 1.0), (row, src.a, 1.0)]
        if src.b != GROUND:
            stamps += [(src.b, row, -1.0), (row, src.b, -1.0)]
    # Node indices are far below 2**53, so they survive the float array.
    triplets = np.array(stamps, dtype=float).reshape(-1, 3)
    return triplets[:, 0].astype(np.intp), triplets[:, 1].astype(np.intp), triplets[:, 2]


class MnaSystem:
    """Assembler bound to one circuit, with precompiled element stamps."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._compile()

    # -- precompilation --------------------------------------------------------

    def _topology_key(self) -> tuple:
        c = self.circuit
        return (
            c.node_count,
            len(c.resistors),
            len(c.capacitors),
            len(c.voltage_sources),
            len(c.current_sources),
            len(c.transistors),
        )

    def _compile(self) -> None:
        circuit = self.circuit
        self.n_nodes = circuit.node_count
        self.n_branches = len(circuit.voltage_sources)
        self.size = self.n_nodes + self.n_branches
        self._topology = self._topology_key()
        n, size = self.n_nodes, self.size

        # Scratch buffers reused across assemblies.
        self._f = np.zeros(size)
        self._xg = np.zeros(n + 1)  # ground aliased to the extra slot
        self._vs_values = np.zeros(self.n_branches)
        self._is_values = np.zeros(len(circuit.current_sources))
        self._diag_flat = np.arange(n, dtype=np.intp) * (size + 1)

        # Current sources: static scatter targets, per-call waveform values.
        is_a = np.array([s.a for s in circuit.current_sources], dtype=np.intp)
        is_b = np.array([s.b for s in circuit.current_sources], dtype=np.intp)
        members = np.arange(len(circuit.current_sources), dtype=np.intp)
        self._is_idx = _concat_intp([is_a[is_a != GROUND], is_b[is_b != GROUND]])
        self._is_sign = np.concatenate(
            [np.ones(int(np.sum(is_a != GROUND))), -np.ones(int(np.sum(is_b != GROUND)))]
        )
        self._is_member = _concat_intp([members[is_a != GROUND], members[is_b != GROUND]])

        self._groups = self._group_transistors(circuit)
        self._compile_transistors()
        self._caps = _CapacitorBank(circuit)
        self._compile_capacitors()
        self._compile_matrix(*_linear_stamp(circuit))
        self._clamp_cache: tuple | None = None

        # Last-point evaluation caches.  Newton's accepted line-search
        # residual and the next iteration's Jacobian re-stamp hit the
        # *same* x, as does the post-solve charge query of the
        # transient integrator — the device models and charge functions
        # are pure, so those repeated evaluations are served from the
        # previous result for the cost of an array compare.
        self._t_x = np.full(self.n_nodes, np.nan)
        self._t_valid = False
        self._c_v = np.empty(0)
        self._c_q = np.empty(0)
        self._c_c = np.empty(0)
        self._c_valid = False
        # Source waveforms are functions of t alone, and every Newton
        # iteration of one solve shares the same t; cache the sampled
        # values keyed on (t, waveforms) so waveform swaps on existing
        # sources (the dc_sweep idiom) still invalidate.
        self._vs_t: float | None = None
        self._vs_waves: list = [None] * self.n_branches
        self._is_t: float | None = None
        self._is_waves: list = [None] * len(circuit.current_sources)

    def _compile_matrix(self, rows, cols, vals) -> None:
        """The constant linear stamp and the Jacobian scratch buffer.

        Both the Jacobian contribution (copied in wholesale) and the
        x-linear residual contribution (one mat-vec) come from the one
        matrix ``_lin``, the :func:`_linear_stamp` triplets summed in
        element order.
        """
        size = self.size
        lin = np.zeros((size, size))
        np.add.at(lin, (rows, cols), vals)
        self._lin = lin
        self._jac = np.zeros((size, size))
        self._jac_flat = self._jac.reshape(-1)

    def invalidate_caches(self) -> None:
        """Recompile the stamps and drop every last-point cache.

        The per-call guards catch waveform swaps and element
        addition/removal, and the last-point caches are keyed on the
        solution vector — but mutating a reused system's devices
        *in place* (swapping a transistor's model or a capacitor's
        charge function, resizing a width: the corners/variation reuse
        idiom) changes the answer at the *same* x, which no key can
        see.  Call this after any such mutation; the next assembly
        evaluates everything fresh.
        """
        self._compile()

    @staticmethod
    def _group_transistors(circuit: Circuit) -> list[_TransistorGroup]:
        by_model: dict[int, list] = {}
        models: dict[int, object] = {}
        for t in circuit.transistors:
            key = id(t.model)
            by_model.setdefault(key, []).append(t)
            models[key] = t.model
        return [_TransistorGroup(models[k], v) for k, v in by_model.items()]

    def _compile_transistors(self) -> None:
        """Flatten every transistor into gather/scatter index arrays.

        The flattened device order is the model groups' (``_groups``),
        one after another; it fixes the scatter order, and with it
        every bit.  Per assembly the only Python-level work left is one
        ``evaluate_density`` call per evaluation group (``_t_groups``):
        one per distinct non-MOSFET model (a TFET table), and one for
        every MOSFET device, whatever its card, on a stacked card
        (:meth:`MosfetModel.stacked`) indexed by the devices' positions.
        Stamping is two ``np.add.at`` calls over these arrays.
        """
        n = self.n_nodes
        size = self.size
        n_t = sum(len(g.members) for g in self._groups)
        self._t_count = n_t
        self._t_id = np.zeros(n_t)
        # Jacobian coefficients, rows gds, gm, gm + gds: the evaluation
        # writes the first two rows in place.
        self._t_coef = np.zeros((3, n_t))
        self._t_gds, self._t_gm = self._t_coef[0], self._t_coef[1]

        members = [t for grp in self._groups for t in grp.members]
        models = [grp.model for grp in self._groups for _ in grp.members]
        sign = np.array([1.0 if t.polarity == "n" else -1.0 for t in members])
        width = np.array([t.width_um for t in members])
        drains = [t.drain for t in members]
        gates = [t.gate for t in members]
        sources = [t.source for t in members]
        # GROUND (-1) indexes the zeroed extra slot of the xg buffer.
        dgs = np.array((drains, gates, sources), dtype=np.intp).reshape(3, n_t)
        dgs[dgs == GROUND] = n

        # (model, positions, sign, width, drain/gate/source gather indices)
        evals: list[tuple] = []
        start = 0
        for grp in self._groups:
            count = len(grp.members)
            if type(grp.model) is not MosfetModel:
                evals.append((grp.model, slice(start, start + count)))
            start += count
        mosfet = [k for k, model in enumerate(models) if type(model) is MosfetModel]
        # The MOSFET devices' own cards, in device order.
        self._mos_cards = [models[k] for k in mosfet]
        if mosfet:
            at = np.array(mosfet, dtype=np.intp)
            if mosfet[-1] - mosfet[0] == len(mosfet) - 1:
                at = slice(mosfet[0], mosfet[-1] + 1)  # one run: cheaper to index
            evals.append((MosfetModel.stacked(self._mos_cards), at))
        self._t_groups = [
            (model, at, sign[at], width[at], *dgs[:, at]) for model, at in evals
        ]

        f_idx: list[int] = []
        f_sign: list[float] = []
        f_member: list[int] = []
        j_flat: list[int] = []
        j_sign: list[float] = []
        j_kind: list[int] = []
        j_member: list[int] = []
        KIND_GDS, KIND_GM, KIND_SUM = 0, 1, 2
        for k in range(n_t):
            d, g, s = drains[k], gates[k], sources[k]
            for node, node_sign in ((d, 1.0), (s, -1.0)):
                if node == GROUND:
                    continue
                f_idx.append(node)
                f_sign.append(node_sign)
                f_member.append(k)
                for col, kind, col_sign in (
                    (d, KIND_GDS, 1.0),
                    (g, KIND_GM, 1.0),
                    (s, KIND_SUM, -1.0),
                ):
                    if col == GROUND:
                        continue
                    j_flat.append(node * size + col)
                    j_sign.append(node_sign * col_sign)
                    j_kind.append(kind)
                    j_member.append(k)
        self._tf_idx = np.array(f_idx, dtype=np.intp)
        self._tf_sign = np.array(f_sign)
        self._tf_member = np.array(f_member, dtype=np.intp)
        self._tj_flat = np.array(j_flat, dtype=np.intp)
        # Where the Jacobian stamps land in the buffer ``_assemble``
        # hands to the stamping methods: flat dense indices here, CSC
        # data slots on the sparse subclass.
        self._tj_dst = self._tj_flat
        self._tj_sign = np.array(j_sign)
        self._tj_kind = np.array(j_kind, dtype=np.intp)
        self._tj_member = np.array(j_member, dtype=np.intp)
        self._tj_coef = self._tj_kind * n_t + self._tj_member  # into _t_coef.flat

    def _compile_capacitors(self) -> None:
        a, b = self._caps.a, self._caps.b
        size = self.size
        members = np.arange(len(self._caps), dtype=np.intp)
        a_ok = a != GROUND
        b_ok = b != GROUND
        both = a_ok & b_ok
        self._cf_idx = _concat_intp([a[a_ok], b[b_ok]])
        self._cf_sign = np.concatenate(
            [np.ones(int(np.sum(a_ok))), -np.ones(int(np.sum(b_ok)))]
        )
        self._cf_member = _concat_intp([members[a_ok], members[b_ok]])
        self._cj_flat = _concat_intp(
            [
                a[a_ok] * size + a[a_ok],
                b[b_ok] * size + b[b_ok],
                a[both] * size + b[both],
                b[both] * size + a[both],
            ]
        )
        n_both = int(np.sum(both))
        self._cj_sign = np.concatenate(
            [
                np.ones(int(np.sum(a_ok))),
                np.ones(int(np.sum(b_ok))),
                -np.ones(n_both),
                -np.ones(n_both),
            ]
        )
        self._cj_member = _concat_intp(
            [members[a_ok], members[b_ok], members[both], members[both]]
        )
        self._cj_dst = self._cj_flat

    def _clamp_arrays(self, clamps: tuple[VoltageClamp, ...]):
        cached = self._clamp_cache
        if cached is not None and cached[0] == clamps:
            return cached[1], cached[2], cached[3]
        live = [cl for cl in clamps if cl.node != GROUND]
        nodes = np.array([cl.node for cl in live], dtype=np.intp)
        conductance = np.array([cl.conductance for cl in live])
        target = np.array([cl.target for cl in live])
        self._clamp_cache = (clamps, nodes, conductance, target)
        return nodes, conductance, target

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _voltage(x: np.ndarray, node: int) -> float:
        return 0.0 if node == GROUND else x[node]

    def _cap_voltages(self, x: np.ndarray) -> np.ndarray:
        xg = self._xg
        xg[: self.n_nodes] = x[: self.n_nodes]
        return xg[self._caps.a] - xg[self._caps.b]

    def _cap_qc(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Charges and capacitances at ``x``, cached on the branch voltages."""
        v = self._cap_voltages(x)
        if self._c_valid and (v == self._c_v).all():
            return self._c_q, self._c_c
        q, c = self._caps.charges_and_caps(v)
        self._c_v, self._c_q, self._c_c = v, q, c
        self._c_valid = True
        return q, c

    def capacitor_charges(self, x: np.ndarray) -> np.ndarray:
        """Charge on every capacitor at the given solution vector."""
        if not len(self._caps):
            return np.empty(0)
        q, _ = self._cap_qc(x)
        return q.copy()

    # -- assembly ----------------------------------------------------------------

    def assemble(
        self,
        x: np.ndarray,
        t: float,
        gmin: float = 0.0,
        transient: TransientState | None = None,
        clamps: tuple[VoltageClamp, ...] = (),
        source_scale: float = 1.0,
        copy: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual f(x) and Jacobian J(x) at time ``t``.

        With ``transient`` set, capacitors contribute backward-Euler
        companion currents against the stored previous charges;
        otherwise they are open (DC).  ``source_scale`` scales every
        independent source for source-stepping homotopy.

        The returned residual is always a fresh array.  With
        ``copy=False`` the Jacobian is the assembler's reusable buffer,
        overwritten by the next assembly — the Newton solver's private
        fast path; every other caller gets a defensive copy.
        """
        f, jac = self._assemble(x, t, gmin, transient, clamps, source_scale, True)
        return (f, jac.copy()) if copy else (f, jac)

    def assemble_residual(
        self,
        x: np.ndarray,
        t: float,
        gmin: float = 0.0,
        transient: TransientState | None = None,
        clamps: tuple[VoltageClamp, ...] = (),
        source_scale: float = 1.0,
    ) -> np.ndarray:
        """Residual only — skips every Jacobian store (line searches)."""
        f, _ = self._assemble(x, t, gmin, transient, clamps, source_scale, False)
        return f

    def _assemble(
        self,
        x: np.ndarray,
        t: float,
        gmin: float,
        transient: TransientState | None,
        clamps: tuple[VoltageClamp, ...],
        source_scale: float,
        want_jac: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._topology != self._topology_key():
            self._compile()

        n = self.n_nodes
        f = self._f
        jac = self._jac
        jac_flat = self._jac_flat

        # Linear elements: constant Jacobian block, one mat-vec residual.
        np.matmul(self._lin, x, out=f)
        if want_jac:
            np.copyto(jac, self._lin)

        if gmin > 0.0:
            f[:n] += gmin * x[:n]
            if want_jac:
                jac_flat[self._diag_flat] += gmin

        if clamps:
            nodes, conductance, target = self._clamp_arrays(clamps)
            if nodes.size:
                np.add.at(f, nodes, conductance * (x[nodes] - target))
                if want_jac:
                    np.add.at(jac_flat, nodes * (self.size + 1), conductance)

        self._stamp_sources(f, t, source_scale)
        if self._t_count:
            self._stamp_transistors(x, f, jac_flat, want_jac)
        if transient is not None and len(self._caps):
            self._stamp_capacitors(x, f, jac_flat, self._cj_dst, transient, want_jac)

        return f.copy(), jac

    def _source_values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Voltage- and current-source values at time ``t``.

        Source values are read from the circuit each call, so waveform
        swaps on existing sources (the dc_sweep idiom) are honoured
        without recompiling; the sampled values are cached on ``(t,
        waveforms)``, each waveform list compared as one.  The returned
        arrays are that cache: read them, never write them.  A new
        sample fills new arrays, so arrays returned earlier keep their
        values (stacked-batch members may share one system and sample
        it at different times before any of them is stamped).  The
        scalar stamp and the stacked batch both sample through here.
        """
        vs = self._vs_values
        waves = [s.waveform for s in self.circuit.voltage_sources]
        if t != self._vs_t or waves != self._vs_waves:
            vs = self._vs_values = np.array([w.value(t) for w in waves], dtype=float)
            self._vs_waves[:] = waves
            self._vs_t = t
        iv = self._is_values
        if iv.size:
            waves = [s.waveform for s in self.circuit.current_sources]
            if t != self._is_t or waves != self._is_waves:
                iv = self._is_values = np.array([w.value(t) for w in waves], dtype=float)
                self._is_waves[:] = waves
                self._is_t = t
        return vs, iv

    def _stamp_sources(self, f, t: float, source_scale: float) -> None:
        """Independent-source residual terms at time ``t``."""
        vs, iv = self._source_values(t)
        if self.n_branches:
            f[self.n_nodes:] -= source_scale * vs
        if self._is_idx.size:
            np.add.at(f, self._is_idx, self._is_sign * (source_scale * iv[self._is_member]))

    def _stamp_transistors(self, x, f, jac, want_jac: bool) -> None:
        """Device evaluation and the transistor stamps.

        One ``evaluate_density`` call per evaluation group, skipped when
        the node voltages equal the last evaluated point.  ``jac`` is the
        Jacobian value buffer; the stamps land at ``_tj_dst``.
        """
        i_d, gm_w, gds_w = self._t_id, self._t_gm, self._t_gds
        volts = x[: self.n_nodes]
        if not (self._t_valid and (volts == self._t_x).all()):
            xg = self._xg
            xg[: self.n_nodes] = volts
            for model, at, sign, width, d, g, s in self._t_groups:
                vs = xg[s]
                vgs = sign * (xg[g] - vs)
                vds = sign * (xg[d] - vs)
                j, gm, gds = model.evaluate_density(vgs, vds)
                i_d[at] = sign * width * np.asarray(j)
                gm_w[at] = width * np.asarray(gm)
                gds_w[at] = width * np.asarray(gds)
            self._t_x[:] = volts
            self._t_valid = True
        np.add.at(f, self._tf_idx, self._tf_sign * i_d[self._tf_member])
        if want_jac:
            coef = self._t_coef
            np.add(gm_w, gds_w, out=coef[2])
            np.add.at(jac, self._tj_dst, self._tj_sign * coef.take(self._tj_coef))

    def capacitor_currents(self, x: np.ndarray, transient: TransientState) -> np.ndarray:
        """Companion-model capacitor currents at the solution ``x``."""
        if not len(self._caps):
            return np.empty(0)
        return transient.currents(self._cap_qc(x)[0])

    def _stamp_capacitors(
        self, x, f, jac, jac_idx, transient: TransientState, want_jac: bool
    ) -> None:
        """Companion-model capacitor stamps, the Jacobian's at ``jac_idx``:
        the system's own ``_cj_dst``, or ``_cj_flat`` in a dense block
        (a stacked batch member, whatever its own format)."""
        h = transient.timestep
        q, c = self._cap_qc(x)
        if transient.method == "trapezoidal":
            current = 2.0 * (q - transient.capacitor_charges) / h - transient.capacitor_currents
            conductance = 2.0 * c / h
        else:
            current = (q - transient.capacitor_charges) / h
            conductance = c / h
        np.add.at(f, self._cf_idx, self._cf_sign * current[self._cf_member])
        if want_jac:
            np.add.at(jac, jac_idx, self._cj_sign * conductance[self._cj_member])
