"""Tests for the analytic 32 nm MOSFET baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import (
    MosfetModel,
    MosfetParameters,
    MosfetTargets,
    calibrate_mosfet,
    mosfet_charges,
    nmos_32nm,
    pmos_32nm,
)


def i(model, vgs, vds):
    return float(np.asarray(model.current_density(vgs, vds)))


class TestCalibration:
    def test_nmos_anchors(self, nmos):
        assert nmos.on_current(0.8) == pytest.approx(4e-4, rel=1e-6)
        assert nmos.off_current(0.8) == pytest.approx(1e-11, rel=1e-6)

    def test_pmos_anchors(self, pmos):
        assert pmos.on_current(0.8) == pytest.approx(2e-4, rel=1e-6)
        assert pmos.off_current(0.8) == pytest.approx(1e-11, rel=1e-6)

    def test_custom_targets(self):
        model = calibrate_mosfet(
            MosfetModel(), MosfetTargets(on_current=1e-4, off_current=1e-10)
        )
        assert model.on_current(0.8) == pytest.approx(1e-4, rel=1e-6)
        assert model.off_current(0.8) == pytest.approx(1e-10, rel=1e-6)

    def test_pmos_weaker_than_nmos(self, nmos, pmos):
        assert pmos.on_current(0.8) < nmos.on_current(0.8)


class TestSubthreshold:
    def test_swing_near_classic_lp_value(self, nmos):
        # A 32 nm low-power device swings ~85-100 mV/dec — above the
        # 60 mV/dec limit and far above the TFET.
        ss = nmos.subthreshold_swing_mv_per_dec()
        assert 70.0 < ss < 110.0

    def test_dibl_raises_leakage_with_drain_bias(self, nmos):
        assert i(nmos, 0.0, 0.9) > i(nmos, 0.0, 0.5)


class TestSymmetry:
    """MOSFETs conduct in both directions — the property TFETs lack."""

    @given(vg=st.floats(0.0, 1.0), vd=st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_source_drain_swap_symmetry(self, nmos, vg, vd):
        forward = i(nmos, vg, vd)
        swapped = i(nmos, vg - vd, -vd)
        assert swapped == pytest.approx(-forward, rel=1e-9, abs=1e-30)

    def test_reverse_on_current_comparable_to_forward(self, nmos):
        # Unlike the TFET, driving the device backwards still conducts.
        forward = i(nmos, 0.8, 0.8)
        backward = abs(i(nmos, 0.0, -0.8))  # gate at source level after swap
        assert backward > 0.1 * forward

    def test_zero_vds_zero_current(self, nmos):
        assert i(nmos, 0.6, 0.0) == pytest.approx(0.0, abs=1e-25)


class TestShape:
    @given(v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_transfer_monotone(self, nmos, v1, v2):
        i1, i2 = i(nmos, v1, 0.8), i(nmos, v2, 0.8)
        assert (i2 - i1) * (v2 - v1) >= 0.0

    @given(v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_output_monotone(self, nmos, v1, v2):
        i1, i2 = i(nmos, 0.8, v1), i(nmos, 0.8, v2)
        assert (i2 - i1) * (v2 - v1) >= 0.0

    def test_saturation(self, nmos):
        # Beyond vdsat the output current grows only via CLM.
        ratio = i(nmos, 0.8, 0.8) / i(nmos, 0.8, 0.5)
        assert 1.0 < ratio < 1.3

    @given(vgs=st.floats(-0.2, 1.0), vds=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_density_matches_finite_difference(self, nmos, vgs, vds):
        _, gm, gds = nmos.evaluate_density(vgs, vds)
        h = 1e-6
        gm_fd = (i(nmos, vgs + h, vds) - i(nmos, vgs - h, vds)) / (2 * h)
        gds_fd = (i(nmos, vgs, vds + h) - i(nmos, vgs, vds - h)) / (2 * h)
        scale = abs(gm_fd) + abs(gds_fd) + 1e-20
        assert abs(float(gm) - gm_fd) / scale < 0.02
        assert abs(float(gds) - gds_fd) / scale < 0.02

    def test_broadcasting(self, nmos):
        out = np.asarray(nmos.current_density(np.linspace(0, 1, 4)[:, None], 0.8))
        assert out.shape == (4, 1)


class TestCharges:
    def test_meyer_partition_symmetric(self):
        ch = mosfet_charges(0.45)
        assert ch.cgs_per_um == ch.cgd_per_um

    def test_capacitance_grows_past_threshold(self):
        ch = mosfet_charges(0.45)
        below = float(np.asarray(ch.cgs_per_um.capacitance(0.0)))
        above = float(np.asarray(ch.cgs_per_um.capacitance(1.0)))
        assert above > 2.0 * below


class TestParameters:
    def test_defaults_reasonable(self):
        p = MosfetParameters()
        assert 0.2 < p.threshold_voltage < 0.7
        assert p.subthreshold_slope_factor > 1.0


class TestStackedCard:
    """One call of a stacked card equals each card's own call, bit for bit."""

    CARDS = {
        "n": nmos_32nm(),
        "p": pmos_32nm(),
        "hot": MosfetModel(MosfetParameters(temperature=350.0)),
    }

    @staticmethod
    def assert_bytes_equal(actual, expected):
        for a, e in zip(actual, expected):
            a, e = np.asarray(a, dtype=float), np.asarray(e, dtype=float)
            assert a.shape == e.shape and a.tobytes() == e.tobytes()

    @given(
        devices=st.lists(
            st.tuples(
                st.sampled_from(["n", "p", "hot"]),
                st.floats(-1.2, 1.2),
                st.one_of(st.floats(-1.2, 1.2), st.sampled_from([0.0, -0.0])),
                st.booleans(),
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_each_cards_own_evaluation(self, devices):
        names = [name for name, *_ in devices]
        # A flipped device sees the negated voltages, as a p-type
        # device of the same card does.
        sign = np.array([-1.0 if flip else 1.0 for *_, flip in devices])
        vgs = sign * np.array([vg for _, vg, _, _ in devices])
        vds = sign * np.array([vd for _, _, vd, _ in devices])
        stacked = MosfetModel.stacked([self.CARDS[name] for name in names])
        if "hot" in names and len(set(names)) > 1:
            assert np.ndim(stacked.params.temperature) == 1
        else:
            assert np.ndim(stacked.params.temperature) == 0
        out = stacked.evaluate_density(vgs, vds)
        for name, card in self.CARDS.items():
            at = np.flatnonzero([n == name for n in names])
            if at.size:
                self.assert_bytes_equal(
                    [o[at] for o in out], card.evaluate_density(vgs[at], vds[at])
                )
                self.assert_bytes_equal(
                    stacked.take(at).evaluate_density(vgs[at], vds[at]),
                    card.evaluate_density(vgs[at], vds[at]),
                )
