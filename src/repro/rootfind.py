"""Brent's bracketing root finder, without importing ``scipy.optimize``.

The device calibrations need one scalar root each, and
``scipy.optimize`` costs every process about a quarter of a second to
import (``scipy.linalg``, which the solver needs anyway, is a small
part of that).  :func:`brentq` is a line-for-line port of scipy's C
``brentq`` (``scipy/optimize/Zeros/brentq.c``) and of the checks its
Python wrapper makes, so it returns the same floats as
``scipy.optimize.brentq`` for the same function, bracket and ``xtol``
at scipy's default ``rtol`` and ``maxiter``; ``tests/test_rootfind.py``
pins that.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["brentq"]

# scipy's defaults; the calibrations need no other.
_RTOL = 4.0 * 2.220446049250313e-16
_MAXITER = 100


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
) -> float:
    """A root of ``f`` in the bracket ``[a, b]``; ``f(a)`` and ``f(b)``
    must differ in sign.

    Converges when the bracket half-width is below ``(xtol + 4 eps
    |x|) / 2``.  Raises :class:`ValueError` for a bad bracket, an
    ``xtol`` that is not positive or a NaN function value, and
    :class:`RuntimeError` when 100 iterations do not converge (scipy's
    ``disp=True``).
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an inf or a NaN here, and either one
                # fails the short-step test below: bisect.
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:  # C's MIN(fabs(spre), limit)
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)

    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur}")
