"""Fig. 12: WL_crit and DRNM vs V_DD for the compared designs.

The asymmetric cell has no WL_crit column — the paper: "WL_crit for the
asymmetric 6T TFET SRAM cannot be defined since it does not have the
separatrix", which our cell model enforces by refusing external-assist
bisection semantics (its write collapses the cell instead of racing a
separatrix), and which the registry records by leaving ``wl_crit`` out
of the ``asym`` design's metrics.

Every value is the registry's measurement
(:func:`repro.char.metrics.evaluate_metric`): WL_crit bisects within
``WL_CRIT_UPPER_BOUND`` and the proposed cell reads with its V_GND
lowering assist, so a built ``nominal`` store serves this figure.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult

DEFAULT_VDDS = (0.5, 0.6, 0.7, 0.8, 0.9)

COLUMNS = (
    ("WLcrit CMOS", "wl_crit", "cmos"),
    ("WLcrit proposed", "wl_crit", "proposed"),
    ("WLcrit 7T", "wl_crit", "7t"),
    ("DRNM CMOS", "drnm", "cmos"),
    ("DRNM proposed+RA", "drnm", "proposed"),
    ("DRNM asym", "drnm", "asym"),
    ("DRNM 7T", "drnm", "7t"),
)
"""``(column label, metric, design)`` for every column."""

SCALE = {"wl_crit": 1e12, "drnm": 1e3}
"""WL_crit in ps, DRNM in mV."""


def run(vdds=DEFAULT_VDDS, char_store=None) -> ExperimentResult:
    from repro.char.query import metric_reader

    read = metric_reader(char_store)
    result = ExperimentResult(
        "fig12",
        "WL_crit (ps) and DRNM (mV) vs V_DD",
        ["vdd (V)", *(label for label, _, _ in COLUMNS)],
    )
    for vdd in vdds:
        result.add_row(
            vdd,
            *(SCALE[metric] * read(metric, design, vdd)
              for _, metric, design in COLUMNS),
        )
    result.notes.append(
        "asym WL_crit undefined (no separatrix); paper shape: every TFET "
        "cell above CMOS in WL_crit, proposed smallest among TFET cells"
    )
    return result
