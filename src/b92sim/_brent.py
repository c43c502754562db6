"""Brent's bracketed root finder.

A port of SciPy's brentq (zeroin, R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4).  It takes the same steps with the same
floating-point operations in the same order, so results equal SciPy's bit
for bit; keeping it in the package spares every command SciPy's import
(about 0.2 s).
"""

from __future__ import annotations

import math
import sys

from .errors import ConsistencyError, DomainError

_RTOL = 4.0 * sys.float_info.epsilon


def brent_root(f, a: float, b: float, xtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b] to within xtol + 4 eps |x|, as brentq returns it.

    DomainError when f(a) and f(b) have the same sign or f returns nan;
    ConsistencyError when ``maxiter`` steps do not converge.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise DomainError(f"root search: f({x!r}) is nan")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError("root search: f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ConsistencyError(f"root search: no convergence after {maxiter} steps, x = {xcur!r}")

