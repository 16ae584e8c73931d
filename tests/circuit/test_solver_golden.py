"""Golden pin for the Newton / transient control flow.

The batch bit-identity tests compare the stacked assembler with the
scalar one while both run the same solver generators, so a change to
the control flow itself (damping, step control, the fallback ladder,
the WL_crit bisection) would pass them unnoticed.  These values were
recorded from the solver before the scalar and stacked paths shared
one implementation; waveform values must hold to 1e-9 relative and the
work counts exactly.  The compiled-array case pins the sparse path (the
CSC assembler and splu) the same way; it was recorded while every
factorization still recomputed its own COLAMD ordering.  The DRNM and
WL_crit counts were recorded on full-length transients; the stopped
and latched runs' counts are pinned beside them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stability import (
    ReferenceWlCritSearch,
    critical_wordline_pulse,
    dynamic_read_noise_margin,
)
from repro.circuit.transient import full_length, simulate_transient
from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD
from repro.experiments.designs import proposed_cell, proposed_read_assist
from repro.sram.array import ArrayGeometry
from repro.sram.compiler import compile_array
from repro.telemetry import core as telemetry
from tests.circuit.test_batch import T_STOP, VARIANTS, _inverter

RTOL = 1e-9

# (steps accepted, Newton iterations, mid-run time, mid-run state, final
# state) per inverter variant of test_batch.VARIANTS, in order.  States
# are (v(vdd), v(in), v(out), i(vdd), i(vin)).
INVERTER_GOLDEN = [
    (143, 734, 6.407328738169779e-10,
     [0.8, 0.8, 1.3324022185106353e-10, -8.000019230185472e-13, -8e-13],
     [0.8, 0.0, 0.7998924325507749, -8.000524219231096e-09, 0.0]),
    (136, 717, 5.892911287461608e-10,
     [0.8, 0.8, 1.6652365019505687e-09, -8.000019230185466e-13, -8e-13],
     [0.8, 0.0, 0.7998924325507069, -8.000524224293301e-09, 0.0]),
    (143, 728, 5.844659546295409e-10,
     [0.8, 0.8, 2.8853063516944624e-14, -8.000019230185472e-13, -8e-13],
     [0.8, 0.0, 0.7998924325507658, -8.000524219910198e-09, 0.0]),
    (139, 727, 6.963058931331519e-10,
     [0.8, 0.8, 8.384104882183702e-07, -8.000019230182244e-13, -8e-13],
     [0.8, 0.0, 0.7998924325502527, -8.000524258064624e-09, 0.0]),
]


@pytest.mark.parametrize(
    "variant, golden", list(zip(VARIANTS, INVERTER_GOLDEN)), ids=[
        f"wn{w}-c{c:g}" for w, c in VARIANTS
    ]
)
def test_inverter_transient_matches_golden(variant, golden):
    steps, iterations, mid_time, mid_state, final_state = golden
    with telemetry.enabled() as tel:
        result = simulate_transient(_inverter(*variant), T_STOP)
    assert tel.counters["transient.steps_accepted"] == steps
    assert tel.counters["newton.iterations"] == iterations
    assert len(result.times) == steps + 1
    mid = len(result.times) // 2
    np.testing.assert_allclose(result.times[mid], mid_time, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(result.states[mid], mid_state, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(result.states[-1], final_state, rtol=RTOL, atol=0.0)


def test_proposed_cell_drnm_matches_golden():
    bench = proposed_cell().read_testbench(0.8, assist=proposed_read_assist())
    # The full-length transient carries the recorded work counts.
    with telemetry.enabled() as tel, full_length():
        drnm = dynamic_read_noise_margin(bench)
    assert drnm == pytest.approx(0.9675762085116936, rel=RTOL, abs=0.0)
    assert tel.counters["transient.steps_accepted"] == 183
    assert tel.counters["newton.iterations"] == 720
    assert "transient.stopped" not in tel.counters

    # The default run stops at the end of the access window: the same
    # value from the first 107 of those steps.
    with telemetry.enabled() as tel:
        drnm = dynamic_read_noise_margin(bench)
    assert drnm == pytest.approx(0.9675762085116936, rel=RTOL, abs=0.0)
    assert tel.counters["transient.steps_accepted"] == 107
    assert tel.counters["newton.iterations"] == 380
    assert tel.counters["transient.stopped"] == 1


def test_tfet_wlcrit_matches_golden():
    # The full-length reference probes carry the recorded work counts.
    with telemetry.enabled() as tel:
        wlcrit = critical_wordline_pulse(
            proposed_cell(), 0.8, search=ReferenceWlCritSearch()
        )
    assert wlcrit == pytest.approx(7.419789006313753e-10, rel=RTOL, abs=0.0)
    assert tel.counters["transient.simulations"] == 11
    assert tel.counters["transient.steps_accepted"] == 1703
    assert tel.counters["newton.iterations"] == 6720

    # The default search solves t = 0 once (cold, then warm), starts
    # every probe there, resumes and latches: the same value from the
    # same 11 probes, with fewer steps.
    with telemetry.enabled() as tel:
        wlcrit = critical_wordline_pulse(proposed_cell(), 0.8)
    assert wlcrit == pytest.approx(7.419789006313753e-10, rel=RTOL, abs=0.0)
    assert tel.counters["transient.simulations"] == 11
    assert tel.counters["dcop.solves"] == 2
    assert tel.counters["transient.steps_accepted"] == 609
    assert tel.counters["newton.iterations"] == 2579
    assert tel.counters["wlcrit.steps_resumed"] == 807
    assert tel.counters["wlcrit.probes_latched"] == 11


# Final voltages of the 8x4 read path's probe nodes.
ARRAY_READ_FINAL = {
    "bl_0": 0.8003194124555798,
    "bl_8": 0.8003193550515184,
    "blb_0": 0.31621819611382096,
    "blb_8": 0.31621806955651593,
    "hs_q": 0.7999963198461035,
    "hs_qb": 0.0005457997431545965,
    "rbl_0": 0.3048015138287279,
    "rbl_sen": 0.7998349350619444,
    "sa_out": 0.7999999942960621,
    "sa_outb": 8.967117252147391e-09,
    "sel_q": 0.8001811083592483,
    "sel_qb": 0.0004692359361286618,
    "wl_0": -7.990723880278412e-08,
    "wl_4": -9.989397905981364e-08,
}


def test_compiled_array_read_matches_golden():
    compiled = compile_array(
        proposed_cell(), ArrayGeometry(rows=8, columns=4), 0.8,
        scenario="read", assist=proposed_read_assist(),
    )
    assert compiled.unknown_count == 76 >= DEFAULT_SPARSE_THRESHOLD
    bench = compiled.bench
    with telemetry.enabled() as tel:
        result = simulate_transient(
            bench.circuit, bench.settle_stop(1.0e-9),
            initial_conditions=bench.initial_conditions,
        )
    assert tel.counters["mna.sparse_selected"] == 1
    assert tel.counters["transient.steps_accepted"] == 350
    assert tel.counters["newton.iterations"] == 1473
    assert tel.counters["newton.jacobian_stamps"] == 855
    assert len(result.times) == 351
    mid = len(result.times) // 2
    np.testing.assert_allclose(
        result.times[mid], 8.328284973000263e-10, rtol=RTOL, atol=0.0
    )
    for node, value in ARRAY_READ_FINAL.items():
        np.testing.assert_allclose(result.final(node), value, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(
        np.linalg.norm(result.states[-1]), 4.5167637052029, rtol=RTOL, atol=0.0
    )
