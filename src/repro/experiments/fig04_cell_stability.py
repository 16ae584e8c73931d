"""Fig. 4: DRNM and WL_crit vs cell ratio for the candidate cells.

Reproduces the Section 3 comparison: 6T TFET with inward nTFET and
inward pTFET access vs the 6T CMOS baseline.  The headline shapes:

* inward nTFET: infinite WL_crit at every beta (unwritable);
* inward pTFET: finite WL_crit only for beta up to ~1, rising steeply;
* CMOS: small, nearly flat WL_crit;
* DRNM grows with beta for every cell, with the TFET cell clearly
  below CMOS at small beta.
"""

from __future__ import annotations

from repro.analysis.stability import WlCritSearch, critical_wordline_pulse
from repro.experiments.common import ExperimentResult
from repro.sram import AccessConfig, CellSizing, Cmos6TCell, Tfet6TCell

DEFAULT_BETAS = (0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0)


def run(betas=DEFAULT_BETAS, vdd: float = 0.8, char_store=None) -> ExperimentResult:
    from repro.char.query import metric_reader

    # DRNM is the registry's measurement, servable from a built
    # `beta_sweep` grid.  WL_crit is this figure's own procedure: it
    # bisects with the default 4 ns window while the store records the
    # wider 8 ns one, and the two disagree exactly where the paper's
    # shape lives (pulses declared infinite at 4 ns).
    read = metric_reader(char_store)
    result = ExperimentResult(
        "fig04",
        f"DRNM and WL_crit vs beta at V_DD = {vdd} V",
        [
            "beta",
            "DRNM inpTFET (mV)",
            "DRNM innTFET (mV)",
            "DRNM CMOS (mV)",
            "WLcrit inpTFET (ps)",
            "WLcrit innTFET (ps)",
            "WLcrit CMOS (ps)",
        ],
    )
    search = WlCritSearch()
    for beta in betas:
        sizing = CellSizing().with_beta(beta)
        cells = (
            Tfet6TCell(sizing, access=AccessConfig.INWARD_P),
            Tfet6TCell(sizing, access=AccessConfig.INWARD_N),
            Cmos6TCell(sizing),
        )
        result.add_row(
            beta,
            *(1e3 * read("drnm", design, vdd, beta=beta)
              for design in ("inward_p", "inward_n", "cmos")),
            *(1e12 * critical_wordline_pulse(cell, vdd, search=search)
              for cell in cells),
        )
    result.notes.append(
        "paper shape: inward nTFET unwritable everywhere; inward pTFET "
        "writable only at small beta; CMOS flat and fast"
    )
    return result
