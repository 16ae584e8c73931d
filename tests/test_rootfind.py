"""The ported Brent root finder returns scipy's floats bit for bit, and
building the nominal devices no longer imports ``scipy.optimize``."""

from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rootfind
from repro.devices import mosfet
from repro.devices.mosfet import MosfetModel, MosfetTargets
from repro.devices.physics import calibration
from repro.devices.physics.calibration import CalibrationTargets
from repro.devices.physics.tfet_model import TfetPhysicalModel

scipy_brentq = pytest.importorskip("scipy.optimize").brentq


def _outcome(solver, f, a, b, **kwargs):
    try:
        return float(solver(f, a, b, **kwargs)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def test_matches_scipy_on_both_calibration_objectives(monkeypatch):
    roots = []

    def checked(f, a, b, **kwargs):
        ours = rootfind.brentq(f, a, b, **kwargs)
        assert ours.hex() == float(scipy_brentq(f, a, b, **kwargs)).hex()
        roots.append(ours)
        return ours

    monkeypatch.setattr(calibration, "brentq", checked)
    monkeypatch.setattr(mosfet, "brentq", checked)
    calibration.calibrate_tfet(TfetPhysicalModel(), CalibrationTargets())
    mosfet.calibrate_mosfet(MosfetModel())
    mosfet.calibrate_mosfet(MosfetModel(), MosfetTargets(on_current=2.0e-4, off_current=1.0e-11))
    assert len(roots) >= 3


def test_device_fingerprints_unchanged_by_the_port(monkeypatch):
    """Every calibrated bit the devices rest on is scipy's."""
    from repro.char import fingerprint
    from repro.devices.library import clear_device_cache

    def fresh():
        clear_device_cache()
        fingerprint.clear_fingerprint_cache()
        return fingerprint.device_fingerprint("tfet"), fingerprint.device_fingerprint("cmos")

    ported = fresh()
    monkeypatch.setattr(calibration, "brentq", scipy_brentq)
    monkeypatch.setattr(mosfet, "brentq", scipy_brentq)
    with_scipy = fresh()
    monkeypatch.undo()
    fresh()
    assert ported == with_scipy


FUNCTIONS = [
    lambda r: (lambda x: (x - r) ** 3 - 0.5 * (x - r)),
    lambda r: (lambda x: math.exp(x - r) - 1.0),
    lambda r: (lambda x: math.atan(40.0 * (x - r))),
    lambda r: (lambda x: 1e-300 * (x - r)),
    # Flat pieces make the secant steps divide by zero.
    lambda r: (lambda x: 1.0 if x > r else -1.0),
    lambda r: (lambda x: round(x - r, 2)),
]


@settings(max_examples=400, deadline=None)
@given(
    kind=st.integers(0, len(FUNCTIONS) - 1),
    root=st.floats(-3.0, 3.0),
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    xtol=st.floats(1e-15, 1e-2),
    maxiter=st.sampled_from([3, 10, 100]),
)
def test_matches_scipy_on_random_brackets(kind, root, a, b, xtol, maxiter):
    """Fewer iterations than the default exercise the non-converged exit."""
    f = FUNCTIONS[kind](root)
    with mock.patch.object(rootfind, "_MAXITER", maxiter):
        ours = _outcome(rootfind.brentq, f, a, b, xtol=xtol)
    assert ours == _outcome(scipy_brentq, f, a, b, xtol=xtol, maxiter=maxiter)


def test_uses_scipys_default_rtol_and_maxiter():
    defaults = inspect.signature(scipy_brentq).parameters
    assert rootfind._RTOL == defaults["rtol"].default
    assert rootfind._MAXITER == defaults["maxiter"].default


def test_rejects_bad_tolerance_and_nan():
    with pytest.raises(ValueError):
        rootfind.brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError, match="NaN"):
        rootfind.brentq(lambda x: math.nan, -1.0, 1.0)


def test_building_devices_does_not_import_scipy_optimize():
    src = Path(rootfind.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from repro.devices.library import nmos_device, pmos_device, tfet_device\n"
        "tfet_device(); nmos_device(); pmos_device()\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
