"""Free-fermion backend for the open transverse-field Ising chain.

The chain H = −Σ Z_j Z_{j+1} − g Σ X_j maps under a Jordan–Wigner
transformation to free Majorana fermions.  With the string convention fixed
so that X_j = −i x_j p_j is the local fermion parity (x_j = m_{2j},
p_j = m_{2j+1}), the Hamiltonian is H = (i/4) mᵀ h m with the real
antisymmetric single-particle matrix

    h[2j, 2j+1] = 2g   (field term),
    h[2j+1, 2j+2] = 2  (bond term),

minus transposes.  A real Schur decomposition h = Q T Qᵀ with canonical
2×2 blocks [[0, ε_k], [−ε_k, 0]], ε_k ≥ 0, gives mode energies: the
many-body spectrum is Σ_k ε_k n_k − ½ Σ_k ε_k.

Everything downstream (thermal covariance, Wick/Pfaffian correlators,
Gaussian subsystem entropies, and the spectral decomposition of the X_j
autocorrelation) costs polynomial time in n, which is what makes the
n = 301 scans feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import schur
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf

from .models import LineGroups, SpectralLines
from .perturbative import Chi2Result, chi2_E_spectral
from .states import NumericalConsistencyError, entropy_from_spectrum

__all__ = [
    "BogoliubovSpectrum",
    "MajoranaCovariance",
    "majorana_couplings",
    "bdg_diagonalize",
    "many_body_energies",
    "thermal_covariance",
    "energy_expectation",
    "pfaffian",
    "x_expectation",
    "string_x_expectation",
    "connected_xx",
    "gaussian_entropy",
    "XLineTable",
    "weak_x_lines",
    "chi2_E_quadratic",
]

_ORTHO_ATOL = 1e-10
_NORM_LIMIT = 1.0 + 1e-10


def majorana_couplings(n: int, g: float) -> np.ndarray:
    """Antisymmetric single-particle matrix h of the open TFIM chain."""
    if n < 2:
        raise ValueError("the chain needs at least two sites")
    h = np.zeros((2 * n, 2 * n))
    for j in range(n):
        h[2 * j, 2 * j + 1] = 2.0 * g
    for j in range(n - 1):
        h[2 * j + 1, 2 * j + 2] = 2.0
    return h - h.T


@dataclass(frozen=True)
class BogoliubovSpectrum:
    """Diagonalized quadratic form: energies ε_k ≥ 0 ascending and the
    orthogonal Q with h = Q T Qᵀ, T canonical (Q columns 2k, 2k+1 carry the
    k-th mode's Majorana pair)."""

    n_modes: int
    energies: np.ndarray
    q: np.ndarray
    couplings: np.ndarray

    def __post_init__(self) -> None:
        n2 = 2 * self.n_modes
        if self.q.shape != (n2, n2) or self.energies.shape != (self.n_modes,):
            raise ValueError("inconsistent spectrum shapes")
        err = float(np.max(np.abs(self.q @ self.q.T - np.eye(n2))))
        if err > _ORTHO_ATOL:
            raise NumericalConsistencyError(f"Q deviates from orthogonality by {err}")
        # T has mode blocks [[0, ε_k], [−ε_k, 0]], that is t_k = −ε_k.
        recon = _times_mode_blocks(self.q, -self.energies) @ self.q.T
        rerr = float(np.max(np.abs(recon - self.couplings)))
        if rerr > _ORTHO_ATOL * max(1.0, float(np.max(np.abs(self.couplings)))):
            raise NumericalConsistencyError(f"spectrum does not reconstruct h (error {rerr})")


def _times_mode_blocks(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q times the block-diagonal matrix with 2×2 mode blocks [[0, −t_k], [t_k, 0]].

    Each column of the product is one scaled column of Q, so it is formed as
    a column swap-and-scale; a dense product would give the same bits, its
    other terms being exact zeros.
    """
    b = np.empty_like(q)
    b[:, 0::2] = q[:, 1::2] * t
    b[:, 1::2] = -(q[:, 0::2] * t)
    return b


def bdg_diagonalize(n: int, g: float) -> BogoliubovSpectrum:
    """Mode energies and Bogoliubov rotation of the open TFIM chain."""
    h = majorana_couplings(n, g)
    if not np.isfinite(h).all():
        raise NumericalConsistencyError(f"the couplings 2g of g = {g:g} overflow")
    t, z = schur(h, output="real")
    scale = max(1.0, float(np.max(np.abs(h))))
    ztol = 1e-12 * scale
    blocks: list[tuple[float, int, int]] = []  # (eps, col_x, col_p)
    singles: list[int] = []
    i = 0
    n2 = 2 * n
    while i < n2:
        if i + 1 < n2 and abs(t[i + 1, i]) > ztol:
            b = t[i, i + 1]
            if b >= 0:
                blocks.append((float(b), i, i + 1))
            else:
                blocks.append((float(-b), i + 1, i))
            i += 2
        else:
            singles.append(i)
            i += 1
    # Zero modes appear as 1x1 blocks; they pair into eps = 0 modes.
    if len(singles) % 2:
        raise ValueError("odd number of unpaired zero columns; Schur form unexpected")
    for a, b in zip(singles[::2], singles[1::2]):
        blocks.append((0.0, a, b))
    blocks.sort(key=lambda item: item[0])
    energies = np.array([b[0] for b in blocks])
    order = [c for b in blocks for c in (b[1], b[2])]
    q = np.ascontiguousarray(z[:, order])
    return BogoliubovSpectrum(n, energies, q, h)


def many_body_energies(spectrum: BogoliubovSpectrum) -> np.ndarray:
    """All 2ⁿ many-body energies Σ_k ε_k n_k − ½ Σ_k ε_k, unsorted-occupation order."""
    n = spectrum.n_modes
    if n > 20:
        raise ValueError("many-body spectrum enumeration capped at 20 modes")
    energies = np.zeros(1)
    for e in spectrum.energies:
        energies = np.concatenate([energies, energies + e])
    return energies - 0.5 * float(spectrum.energies.sum())


@dataclass(frozen=True)
class MajoranaCovariance:
    """Real antisymmetric Γ with ⟨m_μ m_ν⟩ = δ_{μν} − i Γ_{μν}."""

    gamma: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        g = self.gamma
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
            raise ValueError("covariance must be even-dimensional and square")
        if float(np.max(np.abs(g + g.T))) > 1e-10:
            raise ValueError("covariance must be antisymmetric")
        # The Cholesky test settles every valid Γ; only a Γ it cannot clear
        # pays for the SVD, which then decides and words the error.
        if not (np.isrealobj(g) and _norm_below(g, _NORM_LIMIT)):
            smax = float(np.linalg.norm(g, 2))
            if smax > _NORM_LIMIT:
                raise NumericalConsistencyError(f"covariance singular value {smax} exceeds 1")

    @property
    def n_sites(self) -> int:
        return self.gamma.shape[0] // 2


def _norm_below(gamma: np.ndarray, limit: float) -> bool:
    """True when ‖Γ‖₂ < limit, shown by a Cholesky factorization of
    limit² I − ΓᵀΓ: it exists exactly when that matrix is positive definite.

    ΓᵀΓ is formed by a rank-k update (half the flops of a full product)
    into one Fortran-ordered buffer that the factorization then overwrites.
    """
    a = np.asarray(gamma, dtype=np.float64)
    buf = np.eye(a.shape[0], order="F")
    # a.T is Fortran-ordered for a C-ordered a, so BLAS reads it in place.
    buf = dsyrk(-1.0, a.T, beta=limit * limit, c=buf, lower=1, overwrite_c=1)
    _, info = dpotrf(buf, lower=1, overwrite_a=1, clean=0)
    return info == 0


def thermal_covariance(spectrum: BogoliubovSpectrum, beta: float) -> MajoranaCovariance:
    """Gibbs-state covariance Γ = Q Γ′ Qᵀ, mode blocks [[0, −t_k], [t_k, 0]]
    with t_k = tanh(β ε_k / 2)."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    tk = np.tanh(0.5 * beta * spectrum.energies)
    gamma = _times_mode_blocks(spectrum.q, tk) @ spectrum.q.T
    gamma = 0.5 * (gamma - gamma.T)
    return MajoranaCovariance(gamma, float(beta))


def energy_expectation(spectrum: BogoliubovSpectrum, beta: float) -> float:
    """Tr[H ρ_β] = −½ Σ_k ε_k tanh(β ε_k / 2)."""
    return float(-0.5 * np.sum(spectrum.energies * np.tanh(0.5 * beta * spectrum.energies)))


# ---------------------------------------------------------------------------
# Pfaffian and Wick correlators
# ---------------------------------------------------------------------------


def pfaffian(matrix: np.ndarray, *, atol: float = 1e-10) -> float:
    """Pfaffian of a real antisymmetric matrix by Householder tridiagonalization.

    Reduces the matrix to antisymmetric tridiagonal form with orthogonal
    reflections (each contributing det = −1 to the congruence), then takes
    the product of every other superdiagonal entry.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))) if n else 1.0)
    if n and float(np.max(np.abs(a + a.T))) > atol * scale:
        raise ValueError("pfaffian needs an antisymmetric matrix")
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    a = 0.5 * (a - a.T)
    sign = 1.0
    for j in range(n - 2):
        col = a[j + 1 :, j]
        nrm = float(np.linalg.norm(col))
        if nrm < 1e-300:
            continue
        v = col.copy()
        v[0] += math.copysign(nrm, col[0] if col[0] != 0.0 else 1.0)
        v2 = float(v @ v)
        if v2 < 1e-300:
            continue
        w = a[j + 1 :, :].T @ v
        a[j + 1 :, :] -= np.outer(v, w.T) * (2.0 / v2)
        w = a[:, j + 1 :] @ v
        a[:, j + 1 :] -= np.outer(w, v) * (2.0 / v2)
        sign = -sign
    pf = sign
    for j in range(0, n - 1, 2):
        pf *= a[j, j + 1]
    return float(pf)


def _interleaved_indices(sites: Sequence[int]) -> list[int]:
    idx: list[int] = []
    for j in sites:
        idx.extend((2 * j, 2 * j + 1))
    return idx


def x_expectation(cov: MajoranaCovariance, site: int) -> float:
    """⟨X_j⟩ = −Γ[2j, 2j+1]."""
    return float(-cov.gamma[2 * site, 2 * site + 1])


def string_x_expectation(cov: MajoranaCovariance, sites: Sequence[int]) -> float:
    """⟨∏_{j∈S} X_j⟩ = (−1)^{|S|} Pf(Γ restricted to S's Majorana pairs)."""
    s = sorted(set(int(j) for j in sites))
    if not s:
        return 1.0
    if s[0] < 0 or s[-1] >= cov.n_sites:
        raise ValueError("site outside the chain")
    idx = _interleaved_indices(s)
    sub = cov.gamma[np.ix_(idx, idx)]
    return float((-1.0) ** len(s) * pfaffian(sub))


def connected_xx(cov: MajoranaCovariance, i: int, j: int) -> float:
    """⟨X_i X_j⟩ − ⟨X_i⟩⟨X_j⟩ in closed form from four Γ entries."""
    if i == j:
        xi = x_expectation(cov, i)
        return 1.0 - xi * xi
    g = cov.gamma
    return float(
        g[2 * i, 2 * j + 1] * g[2 * i + 1, 2 * j]
        - g[2 * i, 2 * j] * g[2 * i + 1, 2 * j + 1]
    )


def gaussian_entropy(cov: MajoranaCovariance, sites: Sequence[int]) -> float:
    """Subsystem von Neumann entropy (nats) from the covariance spectrum.

    The spectrum of iΓ_sub comes in ±ν pairs; summing h((1+λ)/2) with
    h(p) = −p ln p over the full spectrum counts each mode's binary entropy
    once.
    """
    s = sorted(set(int(j) for j in sites))
    if not s:
        return 0.0
    if s[0] < 0 or s[-1] >= cov.n_sites:
        raise ValueError("site outside the chain")
    idx = _interleaved_indices(s)
    sub = cov.gamma[np.ix_(idx, idx)]
    lam = np.linalg.eigvalsh(1j * sub.astype(np.complex128))
    if float(np.max(np.abs(lam))) > 1.0 + 1e-10:
        raise ValueError("covariance occupation outside [0, 1]")
    p = np.clip(0.5 * (1.0 + lam), 0.0, 1.0)
    return entropy_from_spectrum(p)


# ---------------------------------------------------------------------------
# Spectral decomposition of the X_j autocorrelation
# ---------------------------------------------------------------------------


def _site_mode_amplitudes(spectrum: BogoliubovSpectrum, site: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex mode amplitudes of x_site and p_site: x = Σ A_k b_k + h.c.,
    p = Σ B_k b_k + h.c."""
    q = spectrum.q
    a = q[2 * site, 0::2] - 1j * q[2 * site, 1::2]
    b = q[2 * site + 1, 0::2] - 1j * q[2 * site + 1, 1::2]
    return a, b


class XLineTable:
    """The β-independent part of :func:`weak_x_lines` for one spectrum and site.

    Every line weight is an occupation factor times a mode-pair strength.
    The strength depends only on the spectrum and the site; the occupation
    is a product of two entries of g₂ = [1 − f, f], the Fermi factors
    f_k = 1/(1 + e^{βε_k}) and their complements.  The table holds the
    strengths, the line frequencies with their merge groups, and for each
    line the two indices into g₂, all in sorted-frequency order, so that
    :meth:`at` only forms the weights of one β and reduces them.
    """

    def __init__(
        self,
        spectrum: BogoliubovSpectrum,
        site: int,
        *,
        group_atol: float | None = None,
    ):
        if not 0 <= site < spectrum.n_modes:
            raise ValueError("site outside the chain")
        n = spectrum.n_modes
        eps = spectrum.energies
        a, b = _site_mode_amplitudes(spectrum, site)
        z = a * b.conj()
        m1 = np.outer(np.abs(a) ** 2, np.abs(b) ** 2)
        sym = m1 + m1.T
        s_pair = sym - 2.0 * np.real(np.outer(z, z.conj()))
        s_ph = sym - 2.0 * np.real(np.outer(z, z))
        # Pair lines at ±(ε_k + ε_l), k < l, occupied by (1 − f_k)(1 − f_l)
        # and f_k f_l; particle-hole lines at ε_k − ε_l over ordered pairs
        # including k = l, occupied by (1 − f_k) f_l.
        iu, il = np.triu_indices(n, k=1)
        k, l = np.divmod(np.arange(n * n), n)
        e_pair = eps[iu] + eps[il]
        freq = np.concatenate([e_pair, -e_pair, (eps[:, None] - eps[None, :]).reshape(-1)])
        strength = np.concatenate([s_pair[iu, il], s_pair[iu, il], s_ph.reshape(-1)])
        occ_a = np.concatenate([iu, n + iu, k])
        occ_b = np.concatenate([il, n + il, n + l])
        if group_atol is None:
            group_atol = 1e-10 * max(1.0, float(np.max(np.abs(freq))))
        self.energies = eps
        self.groups = LineGroups.of(freq, group_atol)
        order = self.groups.order
        self.strengths = strength[order]
        self.occ_a = occ_a[order]
        self.occ_b = occ_b[order]

    def at(self, beta: float) -> SpectralLines:
        """The merged lines of the Gibbs state at inverse temperature β."""
        with np.errstate(over="ignore"):
            f = 1.0 / (1.0 + np.exp(beta * self.energies))
        g2 = np.concatenate([1.0 - f, f])
        weight = g2[self.occ_a] * g2[self.occ_b] * self.strengths
        if weight.size and float(weight.min()) < -1e-10:
            raise NumericalConsistencyError(f"negative line weight {weight.min()}")
        return self.groups.reduce(np.clip(weight, 0.0, None))


def weak_x_lines(
    spectrum: BogoliubovSpectrum,
    beta: float,
    site: int,
    *,
    group_atol: float | None = None,
) -> SpectralLines:
    """Discrete lines of the connected autocorrelation ⟨X_j(t) X_j(0)⟩_c.

    X_j is a fermion bilinear, so Wick's theorem reduces the correlator to
    pair lines at ω = ±(ε_k + ε_l) and particle-hole lines at ω = ε_k − ε_l:

        C(t) = ⟨x(t)x⟩⟨p(t)p⟩ − ⟨x(t)p⟩⟨p(t)x⟩,

    with the disconnected ⟨X⟩² term dropped by the pairing structure.  Total
    weight is 1 − ⟨X_j⟩² and every weight is non-negative (AM–GM on the mode
    amplitudes); detailed balance w(−ω) = e^{−βω} w(ω) holds line by line.
    Several β on one chain share an :class:`XLineTable` instead.
    """
    return XLineTable(spectrum, site, group_atol=group_atol).at(beta)


def chi2_E_quadratic(spectrum: BogoliubovSpectrum, beta: float, site: int) -> Chi2Result:
    """Environment coefficient χ⁽²⁾_E for a weak X_j measurement on the Gibbs
    chain, from the free-fermion spectral lines."""
    return chi2_E_spectral(weak_x_lines(spectrum, beta, site), beta)
