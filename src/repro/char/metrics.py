"""The characterized metrics: what each one measures and how.

Each :class:`MetricDef` carries the measurement procedure, the unit,
the interpolation transform (power and delay span decades, so the
query layer interpolates them in log10 space), and a ``version`` tag.
The version participates in the entry fingerprint: bump it whenever
the measurement *procedure* changes (different search bounds, windows,
thresholds), and every stored value produced by the old procedure is
transparently invalidated on the next build — the solver and device
fingerprints cover everything below this layer.

A :class:`MetricPoint` is one cell measurement as plain data, and
:func:`metric_gen` is the one procedure that measures it: the build
workers and ``repro cell`` (through :func:`evaluate_metric`), the
experiments (through :func:`repro.char.query.evaluate_points`) and the
Monte-Carlo samples (through :mod:`repro.engine.mc`) all run it.  It is
a pure function of the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.char.designs import DESIGNS

if TYPE_CHECKING:
    from repro.circuit.transient import TransientOptions
    from repro.sram.assist import Assist

__all__ = [
    "METRICS",
    "MetricDef",
    "MetricPoint",
    "WL_CRIT_UPPER_BOUND",
    "evaluate_metric",
    "metric_gen",
]


@dataclass(frozen=True)
class MetricDef:
    """One characterized figure of merit."""

    name: str
    unit: str
    description: str
    version: int = 1
    transform: str = "linear"
    """``"linear"`` or ``"log"`` — the space the query layer
    interpolates in.  Log metrics are strictly positive when finite."""


METRICS: dict[str, MetricDef] = {
    "hold_power": MetricDef(
        "hold_power", "W", "static (hold) power per cell", transform="log"
    ),
    "drnm": MetricDef(
        "drnm", "V", "dynamic read noise margin (canonical read assist)"
    ),
    "snm": MetricDef("snm", "V", "static (butterfly) read noise margin"),
    "wl_crit": MetricDef(
        "wl_crit", "s",
        "critical wordline pulse (inf when unwritable)", transform="log",
    ),
    "read_delay": MetricDef(
        "read_delay", "s",
        "wordline-to-sense-threshold read delay", transform="log",
    ),
    "write_delay": MetricDef(
        "write_delay", "s",
        "wordline-to-storage-crossing write delay", transform="log",
    ),
    "read_energy": MetricDef(
        "read_energy", "J", "energy of one read access", transform="log"
    ),
    "write_energy": MetricDef(
        "write_energy", "J", "energy of one write access", transform="log"
    ),
}

WL_CRIT_UPPER_BOUND = 8.0e-9
"""Bisection upper bound for ``wl_crit`` (Fig. 12's search window)."""

READ_METRICS = ("drnm", "read_delay", "read_energy")
"""The metrics a design's canonical read assist applies to."""


@dataclass(frozen=True)
class MetricPoint:
    """One cell measurement as plain, hashable, picklable data.

    ``metric``, ``design``, ``vdd``, ``beta`` and ``corner`` are the
    coordinates of a char-store entry (``beta=None`` is the design's
    canonical sizing).  Three more fields reach measurements the store
    does not hold:

    * ``assist``: the :class:`~repro.sram.assist.Assist` the access runs
      with.  ``None`` keeps the design's canonical configuration: its
      read assist (the proposed cell's V_GND lowering) on the read
      metrics, no assist on the others.
    * ``wl_crit_bound``: the widest pulse the ``wl_crit`` bisection
      tries; wider pulses are "infinite WL_crit".
    * ``scales``: per-transistor t_ox scales in
      :attr:`~repro.sram.cell.TfetDeviceSet.POSITIONS` order (a
      Monte-Carlo sample); the TFET cards come from
      :func:`~repro.analysis.montecarlo.varied_device_set` instead of
      the corner's.

    A point with all three at their defaults is a registry point
    (:attr:`registry`), the only kind a char store can answer.
    """

    metric: str
    design: str
    vdd: float
    beta: float | None = None
    corner: str = "tt"
    assist: Assist | None = None
    wl_crit_bound: float = WL_CRIT_UPPER_BOUND
    scales: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            known = ", ".join(sorted(METRICS))
            raise ValueError(f"unknown metric {self.metric!r}; known: {known}")
        if self.design not in DESIGNS:
            known = ", ".join(sorted(DESIGNS))
            raise ValueError(f"unknown design {self.design!r}; known: {known}")
        if self.metric not in DESIGNS[self.design].metrics:
            raise ValueError(
                f"metric {self.metric!r} is undefined for design {self.design!r}"
            )
        if self.assist is not None and self.metric in ("hold_power", "snm"):
            raise ValueError(f"metric {self.metric!r} takes no assist")
        if self.scales is not None:
            object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))

    @property
    def registry(self) -> bool:
        """Whether this is a char-store entry's point: no assist, no
        scales and the registry's WL_crit bound."""
        return (
            self.assist is None
            and self.scales is None
            and self.wl_crit_bound == WL_CRIT_UPPER_BOUND
        )


def metric_gen(point: MetricPoint, options: TransientOptions | None = None):
    """Measure one point, as a solver generator.

    Builds the point's cell (:func:`~repro.char.designs.build_cell`)
    and yields the assembly requests of its DRNM transient
    (:func:`~repro.analysis.stability.drnm_gen`) or its WL_crit
    bisection (:meth:`~repro.analysis.stability.WlCritSearch.search_gen`),
    so the point can be a member of a stacked batch
    (:func:`repro.circuit.batch.run_generators`).  Hold power, SNM,
    delays and energies run on the scalar path and return without
    yielding.  ``options`` are the transient solver options (the
    engine's retry ladder escalates them).

    Returns a float; ``inf`` is data (an unwritable cell's ``wl_crit``,
    a read that never develops).  Solver failures raise.
    """
    from repro.analysis.energy import read_energy, write_energy
    from repro.analysis.power import hold_power
    from repro.analysis.snm import static_noise_margin
    from repro.analysis.stability import WlCritSearch, drnm_gen
    from repro.analysis.timing import read_delay, write_delay
    from repro.char.designs import build_cell, delay_windows

    metric, vdd, assist = point.metric, point.vdd, point.assist
    design = DESIGNS[point.design]
    cell, read_assist = build_cell(
        point.design, beta=point.beta, corner=point.corner, scales=point.scales
    )
    if assist is None and metric in READ_METRICS:
        assist = read_assist
    pulse, duration = delay_windows(design, vdd)

    if metric == "drnm":
        bench = cell.read_testbench(vdd, assist=assist)
        value = yield from drnm_gen(bench, options)
    elif metric == "wl_crit":
        search = WlCritSearch(upper_bound=point.wl_crit_bound, options=options)
        value = yield from search.search_gen(cell.write_bench_factory(vdd, assist=assist))
    elif metric == "hold_power":
        value = hold_power(cell, vdd, average_states=design.hold_average_states)
    elif metric == "snm":
        value = static_noise_margin(cell, vdd)
    elif metric == "read_delay":
        value = read_delay(cell, vdd, assist=assist, duration=duration, options=options)
    elif metric == "write_delay":
        value = write_delay(cell, vdd, assist=assist, pulse_width=pulse, options=options)
    elif metric == "read_energy":
        value = read_energy(cell, vdd, assist=assist, duration=duration, options=options)
    else:
        value = write_energy(cell, vdd, assist=assist, pulse_width=pulse, options=options)
    return float(value)


def evaluate_metric(
    metric: str, design_name: str, vdd: float,
    beta: float | None = None, corner: str = "tt",
) -> float:
    """Simulate one metric at one grid point: :func:`metric_gen` of the
    registry point, on the scalar path.

    Raises ``ValueError`` for a metric or design the registry does not
    know, and on solver failure (the build layer records that as a
    structured failed entry).
    """
    from repro.circuit.dcop import drive

    return drive(metric_gen(MetricPoint(metric, design_name, vdd, beta, corner)))
