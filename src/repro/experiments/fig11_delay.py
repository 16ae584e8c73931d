"""Fig. 11: write and read delay vs V_DD for the four compared designs.

Paper shape: the CMOS cell writes fastest everywhere (bidirectional
access); the proposed cell's read-assist gives it the best TFET read
at low V_DD, with CMOS taking over at high V_DD.

Every delay is the registry's measurement
(:func:`repro.char.metrics.evaluate_metric`): the TFET cells get the
widened low-V_DD wordline windows of :func:`repro.char.designs.delay_windows`
so the slow corner can complete (the paper's Fig. 11 write delays grow
past a nanosecond at 0.5 V).  With ``char_store`` pointing at a built
characterization store (see ``repro char build``), each delay is an
index lookup of the same number.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult

DEFAULT_VDDS = (0.5, 0.6, 0.7, 0.8, 0.9)

COLUMNS = (
    ("write CMOS", "write_delay", "cmos"),
    ("write proposed", "write_delay", "proposed"),
    ("write asym", "write_delay", "asym"),
    ("write 7T", "write_delay", "7t"),
    ("read CMOS", "read_delay", "cmos"),
    ("read proposed", "read_delay", "proposed"),
    ("read asym", "read_delay", "asym"),
    ("read 7T", "read_delay", "7t"),
)
"""``(column label, metric, design)`` for every delay column."""


def run(vdds=DEFAULT_VDDS, char_store=None) -> ExperimentResult:
    from repro.char.query import metric_reader

    read = metric_reader(char_store)
    result = ExperimentResult(
        "fig11",
        "Write / read delay (ps) vs V_DD",
        ["vdd (V)", *(label for label, _, _ in COLUMNS)],
    )
    for vdd in vdds:
        result.add_row(
            vdd,
            *(1e12 * read(metric, design, vdd) for _, metric, design in COLUMNS),
        )
    result.notes.append("paper shape: CMOS fastest write at every V_DD")
    return result
