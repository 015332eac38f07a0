"""Scalar root finding: the lower Lambert W branch and a guarded bisection.

The bandwidth optimizer needs W_{-1}(x) on [-1/e, 0), where the defining
equation w*exp(w) = x has two real solutions and the relevant one satisfies
w <= -1. No table or library call is used; the branch is computed with a
seeded Halley iteration and a bisection fallback.
"""

from __future__ import annotations

import math
from typing import Callable

_MAX_HALLEY = 100
_REL_RESIDUAL = 1e-12


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Bisection on [lo, hi]; f(lo) and f(hi) must differ in sign.

    Terminates on an exact zero, on interval width <= tol, or when the
    midpoint stops being representable between the endpoints (which for
    wide brackets can happen before a tiny absolute tol is met). Raises
    ValueError for a non-bracketing interval, RuntimeError if max_iter
    halvings do not reach the tolerance.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"f({lo})={flo} and f({hi})={fhi} do not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # no representable point strictly inside
            return mid if lo < mid < hi else lo
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise RuntimeError(f"bisection did not reach width {tol} in {max_iter} steps")


def _w_residual(w: float, x: float) -> float:
    return w * math.exp(w) - x


def lambert_w_minus1(x: float) -> float:
    """Lower real branch of Lambert's W: the w <= -1 solving w*exp(w) = x.

    Defined for x in [-1/e, 0). The seed is a branch-point series in
    p = -sqrt(2*(1 + e*x)) near x = -1/e and the log-log asymptotic
    expansion near 0-; Halley steps refine it until the relative residual
    |w*exp(w) - x| / |x| drops to 1e-12. A sign-change bisection backs up
    the (rare) case where the iteration stalls.
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w_minus1 needs a finite argument, got {x}")
    if x >= 0.0:
        raise ValueError(f"lambert_w_minus1 domain is [-1/e, 0), got {x}")
    # 2*(1 + e*x) can come out a few ulp negative for x == -1/e
    psq = 2.0 * (1.0 + math.e * x)
    if psq < -1e-12:
        raise ValueError(f"lambert_w_minus1 domain is [-1/e, 0), got {x} < -1/e")
    psq = max(psq, 0.0)
    if psq == 0.0:
        return -1.0

    if psq < 0.5:
        # series about the branch point, negative root for the lower branch
        p = -math.sqrt(psq)
        w = -1.0 + p * (
            1.0
            + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0
            + p * (769.0 / 17280.0 + p * (-221.0 / 8505.0)))))
        )
    else:
        log_mx = math.log(-x)
        log_log = math.log(-log_mx)
        w = log_mx - log_log + log_log / log_mx

    tol = _REL_RESIDUAL * abs(x)
    for _ in range(_MAX_HALLEY):
        ew = math.exp(w)
        r = w * ew - x
        if abs(r) <= tol:
            return w
        d1 = ew * (w + 1.0)
        if d1 == 0.0:
            break
        d2 = ew * (w + 2.0)
        step = r / (d1 - r * d2 / (2.0 * d1))
        w_next = w - step
        if w_next >= -1.0:
            # keep the iterate on the lower branch
            w_next = 0.5 * (w - 1.0)
        if w_next == w:
            return w
        w = w_next
    if abs(_w_residual(w, x)) <= tol:
        return w

    # fallback: w*exp(w) - x is positive far left, <= 0 at w = -1
    lo = -2.0
    while _w_residual(lo, x) <= 0.0:
        lo *= 2.0
        if lo < -745.0:  # exp underflows; residual is -x > 0 from here on
            break
    root = bisect_root(lambda t: _w_residual(t, x), lo, -1.0)
    return root
