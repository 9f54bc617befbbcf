"""Closed-form continuum predictions for thermal states of critical chains.

For a primary operator of scaling dimension Δ with two-point amplitude κ
(⟨O(z₁)O(z₂)⟩ = κ/|z₁−z₂|^{2Δ} at zero temperature), the second-order
weak-measurement coefficients of a thermal state have closed forms built on

    h(Δ) = √π Γ(Δ+1) / (2 Γ(Δ+3/2)),      α_Δ = 2^{2Δ} h(Δ),

namely χ⁽²⁾_E = κ α_Δ (πT)^{2Δ}, the interval formula for χ⁽²⁾_B, their
semi-infinite difference K⁽²⁾, and the resulting depth bound

    d_min(β, ε) ≥ (β/4π) ln(1 + (1 + c β^{2Δ} ε)^{−1/(2Δ)}),

with c = 12 / ((2π)^{2Δ} κ h(Δ)).  At ε = 0 the bound is β ln2/(4π), and
K⁽²⁾ changes sign at x = β ln2/(2π) for every Δ.

The amplitude κ is never hardcoded: it is fitted from lattice correlator
data (``fit_kappa``).  All sinh ratios are evaluated in log space so that
semi-infinite limits (x₂ ≫ β) do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import NumericalConsistencyError

__all__ = [
    "CftParams",
    "CrossingResult",
    "KappaFit",
    "h_delta",
    "alpha_delta",
    "chi2_E_cft",
    "chi2_B_cft",
    "chi2_B_zero_temperature",
    "k2_cft",
    "c_constant",
    "depth_bound_cft",
    "fit_kappa",
    "find_crossing",
]


@dataclass(frozen=True)
class CftParams:
    """Scaling dimension, two-point amplitude, and temperature T = 1/β."""

    delta: float
    kappa: float
    temperature: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("scaling dimension must be positive")
        if self.kappa <= 0:
            raise ValueError("two-point amplitude must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


@dataclass(frozen=True)
class CrossingResult:
    """Dimensionless crossing point u* = x*/β of the criterion along x."""

    u_star: float
    source: str  # cft-analytic | lattice-scan
    epsilon: float


@dataclass(frozen=True)
class KappaFit:
    """Amplitude fit from lattice correlator samples."""

    kappa: float
    slope: float
    residual_rms: float


def h_delta(delta: float) -> float:
    """h(Δ) = √π Γ(Δ+1) / (2 Γ(Δ+3/2)); positive and decreasing."""
    d = float(delta)
    if d <= 0:
        raise ValueError("scaling dimension must be positive")
    return 0.5 * math.sqrt(math.pi) * math.exp(math.lgamma(d + 1.0) - math.lgamma(d + 1.5))


def alpha_delta(delta: float) -> float:
    """alpha_Δ = 2^{2Δ} h(Δ)."""
    return 4.0 ** float(delta) * h_delta(delta)


def chi2_E_cft(p: CftParams) -> float:
    """χ⁽²⁾_E = κ α_Δ (πT)^{2Δ}."""
    if p.temperature == 0.0:
        return 0.0
    return p.kappa * alpha_delta(p.delta) * (math.pi * p.temperature) ** (2.0 * p.delta)


def _log1m_exp(y: float) -> float:
    """ln(1 − e^{−y}) for y > 0, accurate for small and large y alike
    (Mächler, "Accurately computing log(1 − exp(−|a|))", 2012)."""
    if y < math.log(2.0):
        return math.log(-math.expm1(-y))
    return math.log1p(-math.exp(-y))


def _log_sinh_abs(y: float) -> float:
    """ln|sinh(y)| for y != 0, overflow-free."""
    ay = abs(float(y))
    if ay == 0.0:
        raise ValueError("sinh argument must be non-zero")
    return ay + _log1m_exp(2.0 * ay) - math.log(2.0)


def chi2_B_cft(p: CftParams, x1: float, x2: float) -> float:
    """Interval formula χ⁽²⁾_B = κ h(Δ) (πT)^{2Δ}
    |sinh(πT(x₂−x₁)) / (sinh(πT x₁) sinh(πT x₂))|^{2Δ}.

    The near edge must not sit on the measurement point (x₁ ≠ 0, x₂ ≠ 0,
    x₁ < x₂); a negative x₁ describes an interval straddling it, which is
    how the whole-line limit recovers χ⁽²⁾_E.  T = 0 delegates to the
    zero-temperature closed form.
    """
    x1 = float(x1)
    x2 = float(x2)
    if not x1 < x2 or x1 == 0.0 or x2 == 0.0:
        raise ValueError("interval must satisfy x1 < x2 with both non-zero")
    if p.temperature == 0.0:
        return chi2_B_zero_temperature(p.delta, p.kappa, x1, x2)
    pt = math.pi * p.temperature
    log_ratio = (
        _log_sinh_abs(pt * (x2 - x1)) - _log_sinh_abs(pt * x1) - _log_sinh_abs(pt * x2)
    )
    return p.kappa * h_delta(p.delta) * math.exp(2.0 * p.delta * (math.log(pt) + log_ratio))


def chi2_B_zero_temperature(delta: float, kappa: float, x1: float, x2: float) -> float:
    """T → 0 limit of the interval formula: κ h(Δ) ((x₂−x₁)/|x₁ x₂|)^{2Δ}."""
    if not x1 < x2 or x1 == 0.0 or x2 == 0.0:
        raise ValueError("interval must satisfy x1 < x2 with both non-zero")
    return float(kappa) * h_delta(delta) * ((x2 - x1) / abs(x1 * x2)) ** (2.0 * float(delta))


def k2_cft(p: CftParams, x_ab: float) -> float:
    """Semi-infinite criterion K⁽²⁾ = κ h(Δ) (2πT)^{2Δ} [(e^{2πT x}−1)^{−2Δ} − 1].

    Positive for x below β ln2/(2π), zero there, negative beyond.
    """
    x = float(x_ab)
    if x <= 0:
        raise ValueError("x_AB must be positive")
    if p.temperature <= 0:
        raise ValueError("the semi-infinite criterion needs T > 0")
    y = 2.0 * math.pi * p.temperature * x
    prefac = p.kappa * h_delta(p.delta) * (2.0 * math.pi * p.temperature) ** (2.0 * p.delta)
    bracket = math.exp(-2.0 * p.delta * (y + _log1m_exp(y))) - 1.0
    return prefac * bracket


def c_constant(delta: float, kappa: float) -> float:
    """c = 12 / ((2π)^{2Δ} κ h(Δ)), the amplitude entering the depth bound."""
    d = float(delta)
    if d <= 0 or kappa <= 0:
        raise ValueError("need positive scaling dimension and amplitude")
    return 12.0 / ((2.0 * math.pi) ** (2.0 * d) * float(kappa) * h_delta(d))


def depth_bound_cft(beta: float, epsilon: float, delta_min: float, c: float) -> float:
    """Depth lower bound (β/4π) ln(1 + (1 + c β^{2Δ} ε)^{−1/(2Δ)}).

    ε = 0 gives β ln2/(4π) exactly; larger ε only weakens the bound.
    """
    beta = float(beta)
    eps = float(epsilon)
    d = float(delta_min)
    if beta <= 0 or eps < 0 or d <= 0 or c <= 0:
        raise ValueError("need beta > 0, epsilon >= 0, delta_min > 0, c > 0")
    if eps == 0.0:
        return beta * math.log(2.0) / (4.0 * math.pi)
    # ln(1 + u) for u = c β^{2Δ} ε, from ln u so that u itself never overflows.
    log_u = math.log(float(c)) + 2.0 * d * math.log(beta) + math.log(eps)
    if log_u > 0:
        log1p_u = log_u + math.log1p(math.exp(-log_u))
    else:
        log1p_u = math.log1p(math.exp(log_u))
    inner = math.exp(-log1p_u / (2.0 * d))
    return beta / (4.0 * math.pi) * math.log1p(inner)


def fit_kappa(
    separations: Sequence[float],
    correlators: Sequence[float],
    delta: float,
    *,
    free_exponent: bool = False,
    max_residual_rms: float = 0.1,
) -> KappaFit:
    """Fit κ from zero-temperature lattice samples C(x) = κ / x^{2Δ}.

    The exponent is fixed to the known −2Δ (the diagnostic mode
    ``free_exponent=True`` fits it too, for validation only).  The fit is a
    least-squares line in ln C vs ln x; it is rejected when the residual
    RMS exceeds ``max_residual_rms`` — data that do not follow the assumed
    power law must not silently produce an amplitude.
    """
    xs = np.asarray(separations, dtype=float)
    cs = np.asarray(correlators, dtype=float)
    if xs.shape != cs.shape or xs.ndim != 1:
        raise ValueError("separations and correlators must be equal-length vectors")
    if xs.size < 5:
        raise ValueError("need at least five samples")
    if float(xs.min()) < 10.0:
        raise ValueError("samples must be at separations of at least 10 lattice units")
    if float(cs.min()) <= 0.0:
        raise ValueError("correlator samples must be positive for a log fit")
    lx = np.log(xs)
    lc = np.log(cs)
    if free_exponent:
        slope, intercept = np.polyfit(lx, lc, 1)
    else:
        slope = -2.0 * float(delta)
        intercept = float(np.mean(lc - slope * lx))
    resid = lc - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    if rms > max_residual_rms:
        raise NumericalConsistencyError(
            f"power-law fit rejected: residual RMS {rms:.3g} exceeds {max_residual_rms}"
        )
    return KappaFit(kappa=float(np.exp(intercept)), slope=float(slope), residual_rms=rms)


def find_crossing(
    x_values: Sequence[float],
    chi_b_values: Sequence[float],
    chi_e_values: Sequence[float],
    beta: float,
    *,
    threshold: float = 0.0,
    epsilon: float = 0.0,
    source: str = "lattice-scan",
) -> CrossingResult:
    """Crossing x* of chi_B − chi_E through ``threshold``, as u* = x*/β.

    Expects a scan ordered in increasing x that brackets the crossing
    (criterion positive at the near end, at or below threshold at the far
    end); the crossing is located by linear interpolation.
    """
    xs = np.asarray(x_values, dtype=float)
    cb = np.asarray(chi_b_values, dtype=float)
    ce = np.asarray(chi_e_values, dtype=float)
    if not (xs.shape == cb.shape == ce.shape) or xs.size < 2:
        raise ValueError("need equal-length scans with at least two points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("scan must be strictly increasing in x")
    diff = cb - ce - float(threshold)
    if diff[0] <= 0:
        raise ValueError("scan does not start above the threshold; no bracket")
    below = np.flatnonzero(diff <= 0)
    if below.size == 0:
        raise ValueError("scan never reaches the threshold; no bracket")
    i = int(below[0])
    x_star = xs[i - 1] + (xs[i] - xs[i - 1]) * diff[i - 1] / (diff[i - 1] - diff[i])
    return CrossingResult(u_star=float(x_star / beta), source=source, epsilon=float(epsilon))
