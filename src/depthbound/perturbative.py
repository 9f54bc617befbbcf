"""Second-order weak-measurement response of Holevo information.

For the symmetric two-outcome family F_± = (I ± mu*O)/2, both Holevo
quantities vanish through first order in mu; this module computes the
second-order coefficients chi2 = (1/2) d²chi/dmu² at mu=0 on the run path:

* ``chi2_system`` — the operator formula (1/2)(Tr[xi T_sigma[xi]] − <O>²)
  for a system region, evaluated on the state's marginal with no
  purification;
* ``chi2_E_eigenbasis`` — the environment coefficient of a Gibbs state
  from its eigensystem (normalized, connected form);
* ``correlator_lb_value`` — a rigorous lower bound on the system-side
  coefficient from a static connected correlator.

The map T is the divided-difference representation of the operator
integral T_s[x] = ∫ (s+z)⁻¹ x (s+z)⁻¹ dz, evaluated in the eigenbasis with
analytic confluent limits (no numerical quadrature).

``chi2_general`` (any region of a purified state), ``chi2_E_eigensum``,
``chi2_E_spectral``, ``chi2_B_correlator_lb``, ``build_xi`` and the Lieb
maps are oracles in :mod:`depthbound.oracles`; their names resolve here too.

Values are in nats per mu².
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _resolver
from .states import (
    EIG_FLOOR,
    NEG_EIG_TOL,
    DensityOperator,
    NumericalConsistencyError,
    operator_norm,
)
from .models import ThermalEigensystem, row_chunks
from .purification import non_negative

__all__ = [
    "XiOperator",
    "Chi2Result",
    "f_beta_weight",
    "f_beta_in_place",
    "lieb_T_map",
    "lieb_R_map",
    "build_xi",
    "chi2_general",
    "chi2_system",
    "chi2_E_eigensum",
    "chi2_E_eigenbasis",
    "chi2_E_spectral",
    "chi2_B_correlator_lb",
    "correlator_lb_value",
]


@dataclass(frozen=True)
class Chi2Result:
    """A second-order Holevo coefficient (nats per mu²) with its route tag."""

    value: float
    region: tuple[int, ...] | str
    method: str  # general | system | eigensum | spectral | correlator-lower-bound


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _dd1_vals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First divided difference of ln on positive values.

    (ln a − ln b)/(a − b), continued to 1/a on the diagonal, computed as
    (2/(a+b))·artanh(u)/u with u=(a−b)/(a+b) for cancellation-free accuracy.
    """
    s = a + b
    u = (a - b) / s
    small = np.abs(u) < 1e-6
    safe = np.where(small, 1.0, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(small, 1.0 + u * u / 3.0 + u**4 / 5.0, np.arctanh(safe) / safe)
    return (2.0 / s) * ratio


def _floored_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, u = np.linalg.eigh(mat)
    if float(w.min()) < -NEG_EIG_TOL:
        raise ValueError(f"state eigenvalue {w.min()} below -{NEG_EIG_TOL}")
    return np.clip(w, EIG_FLOOR, None), u


def _check_support(xi_t: np.ndarray, tiny_rows: np.ndarray, tiny: np.ndarray) -> None:
    """Raise when xi, given as rows of U† xi U in sigma's eigenbasis, has
    weight between eigenvectors whose eigenvalues sit at the floor (the
    masks ``tiny_rows`` of those rows and ``tiny`` of all columns)."""
    if tiny_rows.any() and tiny.any():
        if float(np.max(np.abs(xi_t[np.ix_(tiny_rows, tiny)]))) > 1e-7:
            raise ValueError("xi has weight outside the support of sigma")


def _sigma_frame(sigma: DensityOperator | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma's floored eigenvalues w, eigenvectors U, and the mask of the
    eigenvalues at the floor (w <= 10 EIG_FLOOR)."""
    mat = sigma.matrix if isinstance(sigma, DensityOperator) else np.asarray(sigma)
    w, u = _floored_eigh(mat)
    return w, u, w <= 10 * EIG_FLOOR


# ---------------------------------------------------------------------------
# chi2 routes
# ---------------------------------------------------------------------------


def _hermitian_xi(xi: np.ndarray) -> np.ndarray:
    herm_err = float(np.max(np.abs(xi - xi.conj().T)))
    if herm_err > 1e-9:
        raise NumericalConsistencyError(f"xi not Hermitian (deviation {herm_err}); check region/support")
    return 0.5 * (xi + xi.conj().T)


def _check_observable_norm(observable: np.ndarray) -> None:
    norm = operator_norm(np.asarray(observable))
    if norm > 1.0 + 1e-10:
        raise ValueError(f"observable norm {norm} exceeds 1")


def _chi2_from_xi(xi: np.ndarray, sigma: DensityOperator | np.ndarray, mean: float) -> float:
    """(1/2)(Tr[xi T_sigma[xi]] − <O>²).

    In sigma's eigenbasis, with x = U† xi U and K the kernel of
    :func:`~depthbound.oracles.lieb_T_map`, Tr[xi T_sigma[xi]] = Σ_kl |x_kl|² K(w_k, w_l): x is
    formed an eighth of its rows at a time (at least 32), and neither
    T_sigma[xi] nor its rotation back is formed.
    """
    w, u, tiny = _sigma_frame(sigma)
    quad = 0.0
    step = max(32, w.size // 8)
    for start in range(0, w.size, step):
        rows = slice(start, start + step)
        xi_t = (u[:, rows].conj().T @ xi) @ u
        _check_support(xi_t, tiny[rows], tiny)
        weight = np.abs(xi_t)
        del xi_t
        weight *= weight
        weight *= _dd1_vals(w[rows, None], w[None, :])
        quad += float(np.sum(weight))
    return 0.5 * (quad - mean * mean)


def chi2_system(
    rho: DensityOperator,
    observable: np.ndarray,
    obs_sites: Sequence[int],
    region: Sequence[int],
) -> Chi2Result:
    """chi2_X for a system region X, from the state without a purification.

    Tracing the environment out of |psi><psi| leaves rho, so with A the
    support of O and C the rest of the system, xi^X = Tr_{AC}[O_A rho] and
    sigma_X = Tr_{AC} rho; both come from the marginal rho_{AX}.  Equals
    :func:`~depthbound.oracles.chi2_general` on any purification of rho.
    """
    _check_observable_norm(observable)
    obs_sites, region = tuple(obs_sites), tuple(region)
    if set(region) & set(obs_sites):
        raise ValueError("region must be disjoint from the observable support")
    da, dx = 2 ** len(obs_sites), 2 ** len(region)
    t = rho.reduced(obs_sites + region).matrix.reshape(da, dx, da, dx)
    xi = _hermitian_xi(np.einsum("ac,ciaj->ij", np.asarray(observable), t))
    sigma = np.einsum("aiaj->ij", t)
    value = _chi2_from_xi(xi, sigma, float(np.real(np.trace(xi))))
    return Chi2Result(non_negative(value, "chi_B"), region, "system")


def f_beta_weight(omega: np.ndarray | float, beta: float) -> np.ndarray | float:
    """f_beta(omega) = beta*omega / (e^{beta*omega} − 1), with f(0) = 1, in a
    new array of omega's shape (see :func:`f_beta_in_place`)."""
    out = np.array(omega, dtype=float, ndmin=1, order="C")
    f_beta_in_place(out, beta)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out[0])
    return out


def f_beta_in_place(omega: np.ndarray, beta: float) -> None:
    """Overwrite the C-contiguous float64 array ``omega`` with f_beta(omega).

    A chunk at a time, x = beta*omega becomes x/expm1(x), or 1 − x/2 + x²/12
    where |x| < 1e-8.  Every entry is formed on its own, so the bits do not
    depend on how an array of frequencies is split between calls.  At
    beta = inf, where x/expm1(x) is inf/inf or inf · 0, omega > 0 and
    omega = 0 take the limits 0 and 1 (omega < 0 gives inf).
    """
    if omega.dtype != np.float64 or not omega.flags.c_contiguous:
        raise ValueError("f_beta_in_place needs a C-contiguous float64 array")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        flat = omega.reshape(-1)
        for part in row_chunks(flat.size, 1):
            x = flat[part]
            limits = (x > 0, x == 0) if beta == math.inf else None
            x *= beta
            small = np.abs(x) < 1e-8
            xs = x[small]
            np.divide(x, np.expm1(x), out=x)
            if xs.size:
                x[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
            if limits is not None:
                x[limits[0]] = 0.0
                x[limits[1]] = 1.0


def _chi2_E(value: float, method: str) -> Chi2Result:
    """chi2_E of ``method``; beta*omega past the float range leaves it nan."""
    if not np.isfinite(value):
        raise NumericalConsistencyError(f"chi_E = {value} is not finite: beta*omega overflows")
    return Chi2Result(value, "E", method)


def chi2_E_eigenbasis(
    eig: ThermalEigensystem, beta: float, o_eig: np.ndarray | Sequence[np.ndarray]
) -> Chi2Result:
    """Environment coefficient for a Gibbs state from its eigensystem,

    chi2_E = (1/2)[ sum_ij p_i |O_ij|² f_beta(E_j−E_i) − (sum_i p_i O_ii)² ]

    with Gibbs weights p_i (the i=j kernel value is f(0)=1), for an
    observable already in the eigenbasis, o_eig = V† O V
    (:meth:`ThermalEigensystem.rotate`), so that a beta grid rotates O once;
    :func:`~depthbound.oracles.chi2_E_eigensum` rotates O itself.

    An O that maps each sector of ``eig`` onto itself may instead be given
    as its diagonal blocks, one per sector (:meth:`ThermalEigensystem.rotate_x`),
    in each sector's order: its blocks' columns side by side, so ascending
    within each block while ``eig.energies`` ascend as a whole.  Pairs of
    eigenstates in different sectors then carry no weight.
    """
    if isinstance(o_eig, np.ndarray):
        blocks = [(eig.energies, eig.weights(beta), o_eig)]
    else:
        blocks = zip((s.energies for s in eig.sectors), eig.sector_weights(beta), o_eig)
    mean = 0.0
    total = 0.0
    for e, p, o in blocks:
        mean += float(np.real(np.sum(p * np.diagonal(o))))
        # A few temporaries of one chunk of rows at a time, none of O's size.
        for rows in row_chunks(e.size, e.size):
            fw = f_beta_weight(e[None, :] - e[rows, None], beta)
            with np.errstate(invalid="ignore"):  # an overflowed fw; _chi2_E rejects the nan
                fw *= p[rows, None]
                if beta == math.inf:  # p_i f_β(E_j − E_i) → 0 where p_i = 0, though f_∞ = inf for E_j < E_i
                    fw[p[rows] == 0] = 0.0
                total += float(np.sum(np.abs(o[rows]) ** 2 * fw))
    return _chi2_E(0.5 * (total - mean * mean), "eigensum")


def correlator_lb_value(connected: float, mean_b: float) -> float:
    """<O_A O_B>_c² / (2 (1 − <O_B>²)): the strong-probe bound on chi2_B.

    Measuring B with the full-strength binary POVM (I ± O_B)/2 and keeping
    only the outcome bit is a channel on B, so the outcome-outcome mutual
    information lower-bounds chi_B.  Expanding that classical MI to second
    order in the weak-measurement strength gives this expression; the 1/2
    is required for the bound to hold (a diagonal two-bit state probed with
    Z on both ends saturates it exactly).
    """
    denom = 1.0 - mean_b * mean_b
    if denom < 1e-12:
        raise NumericalConsistencyError("1 − <O_B>² below 1e-12; bound denominator underflow")
    return connected * connected / (2.0 * denom)


# The names of __all__ that live in depthbound.oracles load on first use.
__getattr__ = _resolver(globals(), dict.fromkeys(set(__all__).difference(globals()), "oracles"))
