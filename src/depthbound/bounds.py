"""Turning criterion values into circuit-depth lower bounds.

A positive criterion value (exact case) or a criterion exceeding a
continuity threshold (approximate case) certifies that the preparation
lightcones of regions A and B overlap, giving

    d_min >= floor(x_AB / 2) + 1

for the hop distance x_AB.  Thresholds are k(eps) = 2 eps ln d_A' + 4 g(eps)
for general channels and 12 eps for the weak-measurement criterion.  All
criterion values and thresholds are in nats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

__all__ = [
    "STRICT_GUARD",
    "DepthBoundResult",
    "g_func",
    "k_func",
    "invert_k",
    "exact_verdict",
    "approx_verdict",
]

#: Numerical-zero guard on the strict inequality criterion > threshold.
STRICT_GUARD = 1e-12


@dataclass(frozen=True)
class DepthBoundResult:
    """Outcome of comparing a criterion value against its threshold."""

    criterion_value: float
    threshold: float
    x_ab: float
    bound_active: bool
    depth_lower_bound: int
    mode: str  # exact | approx-general | approx-weak
    epsilon: float
    d_aprime: int | None = None


def g_func(x: float) -> float:
    """g(x) = (1+x) ln(1+x) − x ln x, continuous at 0 with g(0)=0."""
    x = float(x)
    if x < 0:
        raise ValueError("g is defined for non-negative arguments")
    if x == 0.0:
        return 0.0
    return (1.0 + x) * math.log1p(x) - x * math.log(x)


def k_func(epsilon: float, d_aprime: int) -> float:
    """k(eps) = 2 eps ln d_A' + 4 g(eps) for eps in [0, 1]."""
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    d = int(d_aprime)
    if d < 1:
        raise ValueError("d_aprime must be a positive integer")
    return 2.0 * eps * math.log(d) + 4.0 * g_func(eps)


def invert_k(k_target: float, d_aprime: int, *, tol: float = 1e-12) -> float:
    """The eps in [0, 1] with k(eps) = k_target (k is strictly increasing)."""
    k_target = float(k_target)
    if k_target < 0:
        raise ValueError("k target must be non-negative")
    if k_target == 0.0:
        return 0.0
    top = k_func(1.0, d_aprime)
    if k_target > top:
        raise ValueError(f"k target {k_target} exceeds k(1) = {top}")
    return _brentq(lambda e: k_func(e, d_aprime) - k_target, 0.0, 1.0, xtol=tol)


def _brentq(f, a: float, b: float, *, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent 1973, ch. 4).

    The iterates, tolerances and stopping rule are those of
    ``scipy.optimize.brentq`` at its defaults, so both return the same float;
    this copy keeps ``scipy.optimize`` off the import path.  Stops when the
    bracket is within xtol + rtol·|x| of the best estimate x, rtol = 4 eps.
    """
    rtol, maxiter = 4 * sys.float_info.epsilon, 100
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # Keep the best estimate in xcur, the bracket's other end in xblk.
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _depth_from_distance(x_ab: float) -> int:
    if not math.isfinite(x_ab) or x_ab < 0:
        raise ValueError(f"x_AB must be a finite non-negative distance, got {x_ab}")
    return int(math.floor(x_ab / 2.0)) + 1


def exact_verdict(criterion_value: float, x_ab: float) -> DepthBoundResult:
    """Exact-preparation verdict: the approximate one at eps = 0, where both
    thresholds vanish; active iff the criterion exceeds 0 (guarded)."""
    return replace(approx_verdict(criterion_value, x_ab, 0.0, weak=True), mode="exact")


def approx_verdict(
    criterion_value: float,
    x_ab: float,
    epsilon: float,
    *,
    d_aprime: int | None = None,
    weak: bool = False,
) -> DepthBoundResult:
    """Approximate-preparation verdict: active iff the criterion exceeds the
    threshold (guarded).

    weak=False compares the exact-channel criterion against k(eps) (requires
    the output dimension d_A' unless eps = 0, where k vanishes); weak=True
    compares the second-order weak-measurement criterion against 12 eps.
    """
    eps = float(epsilon) + 0.0  # -0.0 reads as 0.0
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    if weak:
        threshold = 12.0 * eps
    elif d_aprime is not None:
        threshold = k_func(eps, d_aprime)
    elif eps == 0.0:
        threshold = 0.0  # k(0) = 0 for every d_A'
    else:
        raise ValueError("approx-general mode requires d_aprime")
    active = float(criterion_value) - threshold > STRICT_GUARD
    return DepthBoundResult(
        criterion_value=float(criterion_value),
        threshold=threshold,
        x_ab=x_ab,
        bound_active=active,
        depth_lower_bound=_depth_from_distance(x_ab) if active else 0,
        mode="approx-weak" if weak else "approx-general",
        epsilon=eps,
        d_aprime=None if weak or d_aprime is None else int(d_aprime),
    )
