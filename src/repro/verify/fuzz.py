"""Randomized differential fuzzer for the optimized SPICE core.

Generates small SPICE-subset decks (TFET/MOS mixes, capacitors,
resistors, pulsed/PWL/DC sources), then cross-checks the optimized
paths against the retained seed references:

* the precompiled :class:`~repro.circuit.mna.MnaSystem` assembly
  against :class:`~repro.circuit.mna_reference.ReferenceMnaSystem` at
  randomized solution vectors, across DC / gmin / clamp /
  source-scaled / transient companion configurations;
* the stacked driver: the deck's ``solve_dc_gen`` twice, as two
  ``run_generators`` members, must return ``solve_dc``'s ``x`` bytes
  each, or its error;
* full solves (``solve_dc`` warm and cold, ``dc_sweep`` warm starts,
  ``simulate_transient`` with the predictor on and off, then
  ``solve_dc`` and ``simulate_transient`` again on the forced-sparse
  assembler, which fuzz decks — all below the 64-unknown auto
  threshold — never select on their own) under a collection-mode
  :mod:`repro.verify` session, harvesting every KCL, equivalence,
  charge, table, and Jacobian audit violation.

A failing deck is *shrunk* by greedy card removal (a reduced deck is
kept whenever it still reproduces the same failure kind) and the
minimal reproducer is dumped as a ``.sp`` file — the artifact a human
debugs from.

Everything is deterministic: deck ``i`` of a run is a pure function of
``(root_seed, i)`` via the same ``SeedSequence`` derivation the batch
engine uses, and the probe vectors inside a check depend only on the
deck text.  This module imports the solver stack, which is why it is
*not* re-exported from :mod:`repro.verify` (the solver imports
``repro.verify`` for its audit hooks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.circuit.batch import run_generators
from repro.circuit.dcop import ConvergenceError, SolverOptions, solve_dc, solve_dc_gen
from repro.circuit.mna import MnaSystem, TransientState, VoltageClamp
from repro.circuit.mna_reference import ReferenceMnaSystem
from repro.circuit.parser import NetlistSyntaxError, parse_netlist
from repro.circuit.sweep import dc_sweep
from repro.circuit.transient import TransientOptions, simulate_transient
from repro.verify import core as verify
from repro.verify.core import VerifyOptions

__all__ = [
    "CheckResult",
    "FuzzFailure",
    "FuzzReport",
    "check_deck",
    "generate_deck",
    "run_fuzz",
    "shrink_deck",
]

_MODELS = ("ntfet", "ptfet", "nmos", "pmos")

_EQUIVALENCE_TOLERANCE = 1e-9
"""Relative agreement required between the optimized and reference
assemblies at randomized (non-converged) probe vectors."""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def generate_deck(rng: np.random.Generator) -> str:
    """One random small netlist as SPICE-subset deck text.

    Every deck has a DC supply; beyond that the element mix is random:
    1–5 transistors of mixed models and polarities wired to arbitrary
    nodes, optional resistors, capacitors (node-to-node pairs included,
    so floating subnets occur and lean on the solver's gmin floor), an
    optional pulsed/PWL stimulus, and an optional DC current source.
    """
    vdd = float(rng.uniform(0.5, 0.9))
    n_internal = int(rng.integers(2, 6))
    internal = [f"n{k}" for k in range(1, n_internal + 1)]
    nodes = ["0", "vdd", *internal]

    lines = [f"* fuzz deck vdd={_fmt(vdd)}", f"Vvdd vdd 0 DC {_fmt(vdd)}"]

    if rng.random() < 0.7:
        nodes.append("in")
        if rng.random() < 0.6:
            t0 = float(rng.uniform(2e-11, 2e-10))
            width = float(rng.uniform(5e-11, 2e-10))
            edge = float(rng.uniform(5e-12, 5e-11))
            lines.append(
                f"Vin in 0 PULSE(0 {_fmt(vdd)} {_fmt(t0)} {_fmt(width)} {_fmt(edge)})"
            )
        else:
            n_corners = int(rng.integers(2, 5))
            # Strictly increasing corner times with >= 2 ps gaps.
            times = 1e-11 + np.cumsum(rng.uniform(2e-12, 1.5e-10, n_corners))
            values = rng.uniform(0.0, vdd, n_corners)
            pairs = " ".join(
                f"{_fmt(float(t))} {_fmt(float(v))}" for t, v in zip(times, values)
            )
            lines.append(f"Vin in 0 PWL({pairs})")

    for k in range(int(rng.integers(1, 6))):
        model = str(rng.choice(_MODELS))
        d, g, s = rng.choice(nodes, 3)
        width_m = float(rng.uniform(0.05, 0.4)) * 1e-6
        lines.append(f"M{k} {d} {g} {s} {model} W={_fmt(width_m)}")

    for k in range(int(rng.integers(0, 3))):
        a, b = rng.choice(nodes, 2, replace=False)
        lines.append(f"R{k} {a} {b} {_fmt(float(rng.uniform(1e3, 1e6)))}")

    for k in range(int(rng.integers(0, 4))):
        a, b = rng.choice(nodes, 2, replace=False)
        lines.append(f"C{k} {a} {b} {_fmt(float(rng.uniform(5e-17, 5e-15)))}")

    if rng.random() < 0.3:
        a, b = rng.choice(nodes, 2, replace=False)
        lines.append(f"I0 {a} {b} DC {_fmt(float(rng.uniform(-1e-6, 1e-6)))}")

    lines.append(".end")
    return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    """Outcome of every cross-check stage on one deck."""

    failure: dict | None = None
    """First failure as ``{"kind", "message", ...}``; None when clean."""

    audits: dict[str, int] = field(default_factory=dict)
    nonconverged: int = 0
    """Solve stages that raised ConvergenceError (not a verify failure:
    pathological random circuits may legitimately defeat the homotopy)."""


def _deck_rng(deck: str) -> np.random.Generator:
    """Probe-vector generator derived from the deck text alone, so a
    shrunk deck re-checks deterministically."""
    digest = np.frombuffer(deck.encode()[:64].ljust(64, b"\0"), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(digest.tolist()))


def _equivalence_failure(system, reference, x, t, **kwargs) -> dict | None:
    f_opt, jac_opt = system.assemble(x, t, copy=True, **kwargs)
    f_ref, jac_ref = reference.assemble(x, t, **kwargs)
    scale_f = _EQUIVALENCE_TOLERANCE * (1.0 + float(np.max(np.abs(f_ref), initial=0.0)))
    diff_f = float(np.max(np.abs(f_opt - f_ref), initial=0.0))
    if not diff_f <= scale_f:
        return {
            "kind": "equivalence",
            "message": f"residual mismatch {diff_f:.3e} (allowed {scale_f:.3e})",
        }
    allowed = _EQUIVALENCE_TOLERANCE * (
        np.abs(jac_ref) + 1.0 + float(np.max(np.abs(jac_ref), initial=0.0))
    )
    diff_j = np.abs(jac_opt - jac_ref)
    if not np.all(diff_j <= allowed):
        worst = float(np.max(diff_j - allowed))
        return {
            "kind": "equivalence",
            "message": f"jacobian mismatch (worst excess {worst:.3e})",
        }
    return None


def _check_assembly(circuit, rng) -> dict | None:
    """Optimized vs reference assembly at randomized probe vectors."""
    system = MnaSystem(circuit)
    reference = ReferenceMnaSystem(circuit)
    n_caps = len(circuit.capacitors)
    clamps = ()
    if circuit.node_count:
        clamps = (VoltageClamp(0, float(rng.uniform(0.0, 0.8))),)
    for _ in range(4):
        x = rng.uniform(-0.2, 1.0, system.size)
        x_prev = rng.uniform(-0.2, 1.0, system.size)
        h = float(rng.uniform(1e-13, 1e-11))
        q_prev = reference.capacitor_charges(x_prev)
        i_prev = np.zeros(n_caps)
        configs = [
            {},
            {"gmin": 1e-3},
            {"clamps": clamps, "source_scale": float(rng.uniform(0.1, 1.0))},
            {
                "transient": TransientState(h, q_prev, i_prev, "backward_euler"),
                "gmin": 1e-12,
            },
            {
                "transient": TransientState(h, q_prev, i_prev, "trapezoidal"),
            },
        ]
        for kwargs in configs:
            failure = _equivalence_failure(
                system, reference, x, float(rng.uniform(0.0, 5e-10)), **kwargs
            )
            if failure is not None:
                return failure
    return None


def check_deck(deck: str) -> CheckResult:
    """Run every cross-check stage on one deck.

    Deterministic in the deck text.  Returns the first failure (with
    its kind), the audit counters accumulated across the solve stages,
    and how many stages failed to converge (allowed).
    """
    result = CheckResult()
    try:
        circuit = parse_netlist(deck)
    except NetlistSyntaxError as exc:
        result.failure = {"kind": "parse", "message": str(exc)}
        return result

    rng = _deck_rng(deck)
    try:
        result.failure = _check_assembly(circuit, rng)
        if result.failure is not None:
            return result

        options = VerifyOptions(
            raise_on_violation=False,
            table_interval=16,
            jacobian_audit=True,
            jacobian_interval=11,
        )
        t_stop = max([*circuit.breakpoints(), 3e-10]) * 1.3
        with verify.enabled(options) as session:
            op = None
            try:
                op = solve_dc(circuit)
                expected = op.x.tobytes()
            except ConvergenceError as exc:
                result.nonconverged += 1
                expected = repr(exc)
            for outcome in run_generators([solve_dc_gen(circuit), solve_dc_gen(circuit)]):
                got = outcome.value.x.tobytes() if outcome.error is None else repr(outcome.error)
                if got != expected:
                    scalar = "error" if op is None else "ok"
                    message = f"stacked solve ({outcome.status}) differs from solve_dc ({scalar})"
                    result.failure = {"kind": "batch", "message": message}
                    return result
            if op is not None:
                try:
                    solve_dc(circuit, x0=op)  # warm start from own solution
                except ConvergenceError:
                    result.nonconverged += 1
            try:
                values = np.linspace(0.0, 0.8, 5)
                dc_sweep(circuit, circuit.voltage_sources[0].name, values)
            except ConvergenceError:
                result.nonconverged += 1
            for predictor in ("linear", "none"):
                try:
                    simulate_transient(
                        circuit, t_stop,
                        options=TransientOptions(predictor=predictor),
                    )
                except ConvergenceError:
                    result.nonconverged += 1
            sparse = SolverOptions(matrix_format="sparse")
            try:
                solve_dc(circuit, options=sparse)
            except ConvergenceError:
                result.nonconverged += 1
            try:
                simulate_transient(
                    circuit, t_stop, options=TransientOptions(solver=sparse)
                )
            except ConvergenceError:
                result.nonconverged += 1
            result.audits = dict(session.audits)
            if session.violation_count:
                first = session.violations[0]
                result.failure = {
                    "kind": first["kind"],
                    "message": first["message"],
                    "violations": session.violation_count,
                }
    except Exception as exc:  # noqa: BLE001 — a crash is a finding, not an abort
        result.failure = {
            "kind": "crash",
            "message": f"{type(exc).__name__}: {exc}",
        }
    return result


def shrink_deck(deck: str, kind: str, max_checks: int = 200) -> str:
    """Greedy card removal to a minimal deck reproducing ``kind``.

    Repeatedly tries dropping one card line; a drop is kept when the
    reduced deck still fails with the same kind.  Node renumbering is
    unnecessary — the parser creates nodes on first use — so every
    reduction stays parseable.  ``max_checks`` bounds the re-check
    budget (each re-check runs full solves).
    """
    lines = deck.strip().splitlines()
    checks = 0
    changed = True
    while changed and checks < max_checks:
        changed = False
        for i, line in enumerate(lines):
            if line.startswith("*") or line.lower() == ".end":
                continue
            candidate_lines = lines[:i] + lines[i + 1 :]
            candidate = "\n".join(candidate_lines) + "\n"
            checks += 1
            result = check_deck(candidate)
            if result.failure is not None and result.failure["kind"] == kind:
                lines = candidate_lines
                changed = True
                break
            if checks >= max_checks:
                break
    return "\n".join(lines) + "\n"


@dataclass
class FuzzFailure:
    """One fuzzed deck that failed a cross-check."""

    index: int
    kind: str
    message: str
    deck: str
    minimized: str
    path: str | None = None


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz batch."""

    count: int
    root_seed: int
    failures: list[FuzzFailure] = field(default_factory=list)
    nonconverged: int = 0
    audits: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    count: int,
    root_seed: int = 0,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    on_progress=None,
) -> FuzzReport:
    """Fuzz ``count`` decks; deck ``i`` depends only on ``(root_seed, i)``.

    Failures are shrunk (unless ``shrink=False``) and, with ``out_dir``
    set, each minimal reproducer is dumped as
    ``fuzz_<index>_<kind>.sp`` for offline debugging.
    """
    report = FuzzReport(count=count, root_seed=root_seed)
    directory = Path(out_dir) if out_dir is not None else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([int(root_seed), i]))
        deck = generate_deck(rng)
        result = check_deck(deck)
        report.nonconverged += result.nonconverged
        for name, n in result.audits.items():
            report.audits[name] = report.audits.get(name, 0) + n
        if result.failure is not None:
            kind = result.failure["kind"]
            minimized = shrink_deck(deck, kind) if shrink else deck
            failure = FuzzFailure(
                index=i,
                kind=kind,
                message=result.failure["message"],
                deck=deck,
                minimized=minimized,
            )
            if directory is not None:
                path = directory / f"fuzz_{i:05d}_{kind}.sp"
                header = (
                    f"* minimal reproducer: deck {i} of root seed {root_seed}\n"
                    f"* failure: {kind}: {result.failure['message']}\n"
                )
                path.write_text(header + minimized)
                failure.path = str(path)
            report.failures.append(failure)
        if on_progress is not None:
            on_progress(i + 1, count, len(report.failures))
    return report
