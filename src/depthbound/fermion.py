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
many-body spectrum is Σ_k ε_k n_k − ½ Σ_k ε_k.  The ground state alone
needs no Schur form: its covariance is the polar factor of h's n × n
coupling block (:func:`ground_state_covariance`).

Everything downstream (thermal covariance, Wick/Pfaffian correlators,
Gaussian subsystem entropies, and the spectral decomposition of the X_j
autocorrelation) costs polynomial time in n, which is what makes the
n = 301 scans feasible.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._openblas import short_thread_timeout
from .models import SpectralLines
from .perturbative import Chi2Result, _chi2_E, f_beta_in_place
from .states import NumericalConsistencyError, entropy_from_spectrum

__all__ = [
    "BogoliubovSpectrum",
    "MajoranaCovariance",
    "majorana_couplings",
    "bdg_diagonalize",
    "many_body_energies",
    "thermal_covariance",
    "ground_state_covariance",
    "energy_expectation",
    "pfaffian",
    "x_expectation",
    "string_x_expectation",
    "connected_xx",
    "gaussian_entropy",
    "weak_x_lines",
    "chi2_E_quadratic",
]

_ORTHO_ATOL = 1e-10
_NORM_LIMIT = 1.0 + 1e-10


def majorana_couplings(n: int, g: float) -> np.ndarray:
    """Antisymmetric single-particle matrix h of the open TFIM chain.

    h is built in one Fortran-order array, the layout LAPACK factors in
    place.  Each entry below the diagonal is 0.0 minus its partner above,
    so h holds the bits of u − uᵀ for its upper triangle u, signed zeros
    included (at g = −0.0 the field entries are −0.0 above and 0.0 below).
    """
    if n < 2:
        raise ValueError("the chain needs at least two sites")
    return _couplings_rows(n, g, slice(0, 2 * n), order="F")


def _couplings_rows(n: int, g: float, rows: slice, order: str = "C") -> np.ndarray:
    """Rows ``rows`` of h, in one array of ``order``, from h's two
    off-diagonals: 2g (x rows) and 2 (p rows) right of the diagonal,
    0.0 − 2g (p rows) and 0.0 − 2 (x rows) left of it.  The spectrum
    checks read h a band at a time through it."""
    i = np.arange(rows.start, rows.stop)
    band = np.zeros((i.size, 2 * n), order=order)
    right = i[i + 1 < 2 * n]
    band[right - rows.start, right + 1] = np.where(right % 2 == 0, 2.0 * g, 2.0)
    left = i[i > 0]
    band[left - rows.start, left - 1] = np.where(left % 2 == 1, 0.0 - 2.0 * g, 0.0 - 2.0)
    return band


def _coupling_block(n: int, g: float) -> np.ndarray:
    """h[0::2, 1::2] of :func:`majorana_couplings`, built alone: 2g on the
    diagonal and 0.0 − 2 below it, with h's bits."""
    if n < 2:
        raise ValueError("the chain needs at least two sites")
    m = np.zeros((n, n))
    m.flat[:: n + 1] = 2.0 * g
    m.flat[n :: n + 1] = 0.0 - 2.0
    return m


@dataclass(frozen=True)
class BogoliubovSpectrum:
    """Diagonalized quadratic form: energies ε_k ≥ 0 ascending and the first
    2r rows of the orthogonal Q with h = Q T Qᵀ, T canonical (Q columns 2k,
    2k+1 carry the k-th mode's Majorana pair).  The rows are those of sites
    0 … r − 1, 1 ≤ r ≤ n, and r = n keeps all of Q; a read past them raises
    ``ValueError``.  :func:`bdg_diagonalize` checks h = Q T Qᵀ before it
    gathers them."""

    n_modes: int
    energies: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        n2 = 2 * self.n_modes
        rows = self.q.shape[0]
        if self.q.shape != (rows, n2) or rows % 2 or not 2 <= rows <= n2 or self.energies.shape != (self.n_modes,):
            raise ValueError("inconsistent spectrum shapes")


def _abs_max(a: np.ndarray) -> float:
    """max |a| without an |a| temporary."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _bands(count: int, parts: int = 8) -> list[slice]:
    """At most ``parts`` slices of about equal length over ``count`` rows."""
    step = max(1, -(-count // parts))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _upper_residual_max(rows_of, q: np.ndarray, minus=None) -> float:
    """max |R| over the upper triangle of R = A Qᵀ − I, or A Qᵀ − M, formed
    one band of rows at a time (``rows_of(band)`` gives A's rows and
    ``minus(band)`` M's).

    Each R checked here is symmetric or antisymmetric up to rounding, so
    that triangle holds every entry; the residuals only gate, so the band
    products need not reproduce the bits of a whole product.
    """
    err = 0.0
    for rows in _bands(q.shape[0]):
        res = rows_of(rows) @ q[rows.start :].T
        if minus is None:
            diag = np.arange(rows.stop - rows.start)
            res[diag, diag] -= 1.0
        else:
            res -= minus(rows)[:, rows.start :]
        err = max(err, _abs_max(res))
    return err


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


def _check_schur_vectors(z: np.ndarray, order: np.ndarray, energies: np.ndarray, g: float, scale: float) -> None:
    """The two checks of h = Q T Qᵀ for Q = Z[:, order], run on Z.

    Q Qᵀ = Z Zᵀ, as the column permutation cancels.  Q T Qᵀ is formed a
    band of rows at a time: the band's rows of Q times the mode blocks, with
    its columns scattered back to Z's order, times Zᵀ; h's band is read off
    its two off-diagonals, so no (2n)² h is built.  ``scale`` is
    max(1, max |h|).
    """
    err = _upper_residual_max(z.__getitem__, z)
    if err > _ORTHO_ATOL:
        raise NumericalConsistencyError(f"Q deviates from orthogonality by {err}")
    n = energies.size

    def q_t_rows(rows: slice) -> np.ndarray:
        # T has mode blocks [[0, ε_k], [−ε_k, 0]], that is t_k = −ε_k.
        b = np.empty((rows.stop - rows.start, 2 * n))
        b[:, order] = _times_mode_blocks(z[rows][:, order], -energies)
        return b

    rerr = _upper_residual_max(q_t_rows, z, lambda rows: _couplings_rows(n, g, rows))
    if rerr > _ORTHO_ATOL * scale:
        raise NumericalConsistencyError(f"spectrum does not reconstruct h (error {rerr})")


_FLAPACK = "scipy.linalg._flapack"
_DGEES_LOCK = threading.Lock()
_dgees = None  # scipy's LAPACK dgees wrapper, loaded on the first Schur form


def _load_dgees():
    """``dgees`` from scipy's compiled LAPACK extension, without the
    ``scipy.linalg`` package around it: the extension's file is looked up
    in scipy's package directory (``find_spec`` imports nothing) and loaded
    alone.  Without the file, the normal import system loads the module.

    The extension links scipy's own OpenBLAS, which loads here inside
    :func:`~depthbound._openblas.short_thread_timeout`, as numpy's does at
    ``import depthbound``: unless the user set a thread timeout, its pool
    sleeps soon after each call instead of spinning ~0.1 s; its thread
    count, and so every bit, is kept."""
    with short_thread_timeout():
        spec = importlib.util.find_spec("scipy")
        for root in spec.submodule_search_locations if spec is not None else ():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(root, "linalg", "_flapack" + suffix)
                if os.path.isfile(path):
                    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
                    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
                    loader.exec_module(module)
                    return module.dgees
        return importlib.import_module(_FLAPACK).dgees


def _no_sort(wr, wi=None):
    return None


def schur(h: np.ndarray, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form h = Z T Zᵀ of a finite real square matrix.

    It makes the LAPACK calls ``scipy.linalg.schur(h)`` makes, a workspace
    query and one unsorted ``dgees``, so T and Z are its bits.  Both calls
    run on one Fortran-order float64 array, which T overwrites: a copy of
    h, so that the caller's h is never written, or with ``overwrite_a`` h
    itself when it is such an array.  The query copies nothing; its wrapper
    still allocates a Z, which is freed before the factorization.  Only
    scipy's LAPACK extension is loaded, once per process and under a lock,
    so the free-fermion runs skip the ``scipy.linalg`` import and the dense
    and cft runs, which never call this, load no scipy at all.  scipy's
    OpenBLAS pool, like numpy's, sleeps between calls unless the user set a
    thread timeout (:func:`_load_dgees`).  A failed factorization raises
    :class:`NumericalConsistencyError`.
    """
    global _dgees
    with _DGEES_LOCK:
        if _dgees is None:
            _dgees = _load_dgees()
        dgees = _dgees
    a = h if overwrite_a else np.array(h, dtype=np.float64, order="F")
    lwork = dgees(_no_sort, a, lwork=-1, overwrite_a=True)[-2][0].real.astype(np.int_)
    t, _, _, _, z, _, info = dgees(_no_sort, a, lwork=lwork, overwrite_a=True, sort_t=0)
    if info != 0:
        raise NumericalConsistencyError(f"LAPACK dgees found no real Schur form (info = {info})")
    return t, z


def bdg_diagonalize(n: int, g: float, rows: int | None = None) -> BogoliubovSpectrum:
    """Mode energies and Bogoliubov rotation of the open TFIM chain, with
    Q's leading ``rows`` rows (all 2n by default).

    The Schur form h = Z T Zᵀ runs in place on h, and T is dropped once its
    2×2 blocks are read off its two off-diagonals.  Q = Z[:, order] is
    checked on Z (:func:`_check_schur_vectors`); only then are its leading
    ``rows`` rows gathered, a band at a time, into a C-order array.  The
    covariance of sites 0 … r − 1 and their mode amplitudes read no rows
    past 2r.  Beside LAPACK's work array, at most two (2n)² blocks and a
    few bands are held, and no full Q is allocated when ``rows`` < 2n.
    """
    n2 = 2 * n
    if rows is None:
        rows = n2
    elif rows % 2 or not 2 <= rows <= n2:
        raise ValueError(f"rows = {rows} is not an even count of Q's 2n = {n2} rows")
    h = majorana_couplings(n, g)
    if not np.isfinite(h).all():
        raise NumericalConsistencyError(f"the couplings 2g of g = {g:g} overflow")
    scale = max(1.0, _abs_max(h))
    ztol = 1e-12 * scale
    t, z = schur(h, overwrite_a=True)
    del h  # T's buffer
    sub, sup = np.diagonal(t, -1).tolist(), np.diagonal(t, 1).tolist()
    del t
    blocks: list[tuple[float, int, int]] = []  # (eps, col_x, col_p)
    singles: list[int] = []
    i = 0
    while i < n2:
        if i + 1 < n2 and abs(sub[i]) > ztol:
            b = sup[i]
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
    order = np.array([c for b in blocks for c in (b[1], b[2])])
    _check_schur_vectors(z, order, energies, g, scale)
    q = np.empty((rows, n2))
    for band in _bands(rows):
        q[band] = z[band][:, order]
    del z
    return BogoliubovSpectrum(n, energies, q)


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
        with np.errstate(invalid="ignore"):  # inf − inf; the test below rejects it
            asym = g + g.T
        np.abs(asym, out=asym)  # a complex Γ keeps |·| in the real parts
        # An inf or nan entry leaves an inf or nan in asym, which fails too.
        if not float(asym.real.max()) <= 1e-10:
            if not np.isfinite(g).all():
                raise ValueError("covariance must be finite")
            raise ValueError("covariance must be antisymmetric")
        del asym
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

    ``a.T @ a`` takes numpy's rank-k update (half the flops of a full
    product); limit² I − ΓᵀΓ is then formed in that buffer.  The factor
    cannot overwrite its input, so the test holds two (2n)² arrays: the
    Gram matrix and the factor.  numpy's Cholesky also factors in a work
    copy of its own, a third block outside the array allocator.
    """
    a = np.asarray(gamma, dtype=np.float64)
    gram = a.T @ a
    np.negative(gram, out=gram)
    gram.flat[:: a.shape[0] + 1] += limit * limit
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def thermal_covariance(
    spectrum: BogoliubovSpectrum, beta: float, prefix: int | None = None
) -> MajoranaCovariance:
    """Gibbs-state covariance Γ = Q Γ′ Qᵀ, mode blocks [[0, −t_k], [t_k, 0]]
    with t_k = tanh(β ε_k / 2).

    With ``prefix`` only the covariance of sites 0 … prefix − 1 is formed,
    from the first 2·prefix rows of Q, which the spectrum must keep.  A Gaussian state's reduced state is
    fixed by the covariance restricted to the subsystem (Peschel, J. Phys. A
    36, L205, 2003), so that block is itself the covariance of those sites,
    and the norm guard runs on it.
    """
    if not beta >= 0:  # nan too
        raise ValueError("beta must be non-negative")
    n = spectrum.n_modes
    if prefix is None:
        prefix = n
    elif not 1 <= prefix <= n:
        raise ValueError("prefix outside the chain")
    if 2 * prefix > spectrum.q.shape[0]:
        raise ValueError(f"prefix {prefix} reads past the {spectrum.q.shape[0]} rows of Q the spectrum keeps")
    # beta ε_k past the float range is inf, and tanh(inf) = 1.
    with np.errstate(over="ignore"):
        tk = np.tanh(0.5 * beta * spectrum.energies)
    q = spectrum.q[: 2 * prefix]
    gamma = _times_mode_blocks(q, tk) @ q.T
    gamma = 0.5 * (gamma - gamma.T)
    return MajoranaCovariance(gamma, float(beta))


def ground_state_covariance(n: int, g: float, prefix: int | None = None) -> MajoranaCovariance:
    """Ground-state covariance of the open chain from the polar factor of
    its coupling block, with no Schur form.

    h couples only x to p Majoranas, so its nonzero part is the n × n block
    M = h[0::2, 1::2] = U Σ Vᵀ, whose singular values Σ are the mode
    energies; M is built alone, without h.  At T = 0, Γ[0::2, 1::2] = −U Vᵀ,
    Γ[1::2, 0::2] = (U Vᵀ)ᵀ and the rest is 0 (Surace & Tagliacozzo,
    SciPost Phys. Lect. Notes 54, 2022): the β → ∞ limit of
    :func:`thermal_covariance`.  A gapless Σ leaves that polar factor, and
    so the ground state, undetermined.

    With ``prefix``, as in :func:`thermal_covariance`, only the covariance
    of sites 0 … prefix − 1 is returned (Peschel, J. Phys. A 36, L205,
    2003), and the norm guard runs on it.  U Vᵀ is still formed whole, so
    the block holds the bits of the whole chain's Γ.
    """
    m = _coupling_block(n, g)
    if prefix is None:
        prefix = n
    elif not 1 <= prefix <= n:
        raise ValueError("prefix outside the chain")
    if not np.isfinite(m).all():
        raise NumericalConsistencyError(f"the couplings 2g of g = {g:g} overflow")
    u, sigma, vt = np.linalg.svd(m)
    for name, w in (("U", u), ("V", vt)):
        err = _upper_residual_max(w.__getitem__, w)
        if err > _ORTHO_ATOL:
            raise NumericalConsistencyError(f"{name} deviates from orthogonality by {err}")
    scale = max(1.0, _abs_max(m))
    rerr = max(_abs_max((u[rows] * sigma) @ vt - m[rows]) for rows in _bands(n))
    del m
    if rerr > _ORTHO_ATOL * scale:
        raise NumericalConsistencyError(f"SVD does not reconstruct the couplings (error {rerr})")
    # The SVD perturbs U Vᵀ by about eps·σ_max/σ_min; past _ORTHO_ATOL the
    # smallest mode energy cannot be told from a zero mode.
    if sigma[-1] * _ORTHO_ATOL <= np.finfo(float).eps * sigma[0]:
        raise NumericalConsistencyError(
            f"gapless chain: smallest mode energy {sigma[-1]:.3g} leaves the ground state undetermined"
        )
    polar = u @ vt
    del u, vt, w
    block = polar[:prefix, :prefix]
    gamma = np.zeros((2 * prefix, 2 * prefix))
    gamma[0::2, 1::2] = -block
    gamma[1::2, 0::2] = block.T
    del polar, block
    return MajoranaCovariance(gamma, math.inf)


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


def _require_sites(cov: MajoranaCovariance, *sites: int) -> None:
    if any(not 0 <= j < cov.n_sites for j in sites):
        raise ValueError("site outside the chain")


def x_expectation(cov: MajoranaCovariance, site: int) -> float:
    """⟨X_j⟩ = −Γ[2j, 2j+1]."""
    _require_sites(cov, site)
    return float(-cov.gamma[2 * site, 2 * site + 1])


def string_x_expectation(cov: MajoranaCovariance, sites: Sequence[int]) -> float:
    """⟨∏_{j∈S} X_j⟩ = (−1)^{|S|} Pf(Γ restricted to S's Majorana pairs)."""
    s = sorted(set(int(j) for j in sites))
    if not s:
        return 1.0
    _require_sites(cov, s[0], s[-1])
    idx = _interleaved_indices(s)
    sub = cov.gamma[np.ix_(idx, idx)]
    return float((-1.0) ** len(s) * pfaffian(sub))


def connected_xx(cov: MajoranaCovariance, i: int, j: int) -> float:
    """⟨X_i X_j⟩ − ⟨X_i⟩⟨X_j⟩ in closed form from four Γ entries."""
    if i == j:
        xi = x_expectation(cov, i)
        return 1.0 - xi * xi
    _require_sites(cov, i, j)
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
    _require_sites(cov, s[0], s[-1])
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
    p = Σ B_k b_k + h.c.; the site must lie on the chain and within the
    spectrum's kept rows of Q."""
    if not 0 <= site < spectrum.n_modes:
        raise ValueError("site outside the chain")
    q = spectrum.q
    if 2 * site + 1 >= q.shape[0]:
        raise ValueError(f"site {site} reads past the {q.shape[0]} rows of Q the spectrum keeps")
    a = q[2 * site, 0::2] - 1j * q[2 * site, 1::2]
    b = q[2 * site + 1, 0::2] - 1j * q[2 * site + 1, 1::2]
    return a, b


def _x_lines(spectrum: BogoliubovSpectrum, beta: float, site: int, freq: np.ndarray, visit) -> None:
    """The weak-X lines of ``site`` at inverse temperature β, a run at a time.

    The n(2n − 1) frequencies fill ``freq``: the pair lines, the negated pair
    lines, then the particle-hole block.  A weight is an occupation, two of
    the Fermi factors f_k = 1/(1 + e^{βε_k}) and their complements, times a
    strength from the site's O(n) mode amplitudes, formed one band of n/16
    modes k at a time in n/16 × n buffers that every band reuses.  After each
    run, ``visit(where, weight)`` gets the run's slice of ``freq``, which is
    not read again, and its unclipped weights in a reused buffer.
    """
    if not beta >= 0:  # nan too
        raise ValueError("beta must be non-negative")
    a, b = _site_mode_amplitudes(spectrum, site)
    eps = spectrum.energies
    n = eps.size
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    z = a * b.conj()
    zc = z.conj()
    with np.errstate(over="ignore"):
        f = 1.0 / (1.0 + np.exp(beta * eps))
    fc = 1.0 - f
    npair = n * (n - 1) // 2
    pair, neg_pair, ph = freq[:npair], freq[npair : 2 * npair], freq[2 * npair :].reshape(n, n)

    # Real band buffers, reused by every band.  A kept complex buffer would
    # raise the peak at n = 1001, which falls at the pair lines' gather.
    bands = _bands(n, 16)
    width = bands[0].stop
    sym_buf, s_buf = np.empty((2, width, n))
    upper_buf = np.empty((width, n), dtype=bool)
    modes = np.arange(n)

    def strengths(rows: slice, sym: np.ndarray, zl: np.ndarray) -> np.ndarray:
        """sym − 2 Re(z_k zl_l) over the band, in the band's real buffer."""
        s = s_buf[: sym.shape[0]]
        np.multiply(np.multiply(z[rows, None], zl).real, 2.0, out=s)
        return np.subtract(sym, s, out=s)

    start = 0
    for rows in bands:
        k = rows.stop - rows.start
        sym, s, upper = sym_buf[:k], s_buf[:k], upper_buf[:k]
        np.multiply(aa[rows, None], bb, out=sym)
        sym += np.multiply(bb[rows, None], aa, out=s)
        # Pair lines at ±(ε_k + ε_l), k < l, occupied by (1 − f_k)(1 − f_l)
        # and f_k f_l: the band's part of each is one run of lines.
        np.greater(modes, modes[rows, None], out=upper)
        s_kl = strengths(rows, sym, zc)[upper]
        stop = start + s_kl.size
        pair[start:stop] = np.add(eps[rows, None], eps, out=s)[upper]
        np.negative(pair[start:stop], out=neg_pair[start:stop])
        for offset, occ in ((0, fc), (npair, f)):
            weight = np.multiply(occ[rows, None], occ, out=s)[upper]
            weight *= s_kl
            visit(slice(offset + start, offset + stop), weight)
        start = stop
        del s_kl, weight
        # Particle-hole lines at ε_k − ε_l, k and l in any order, occupied
        # by (1 − f_k) f_l: the band's rows of the block.
        weight = strengths(rows, sym, z)
        weight *= np.multiply(fc[rows, None], f, out=sym)
        np.subtract(eps[rows, None], eps, out=ph[rows])
        visit(slice(2 * npair + rows.start * n, 2 * npair + rows.stop * n), weight.reshape(-1))


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
    A weight below −1e-10 raises; the rest are clipped at 0 and the lines
    merged by :meth:`SpectralLines.merged` within ``group_atol`` (by default
    1e-10 times the largest |ω|, at least 1e-10).  χ_E needs no merge:
    :func:`chi2_E_quadratic` sums the same lines term by term.
    """
    n = spectrum.n_modes
    freq, weight = np.empty((2, n * (2 * n - 1)))
    _x_lines(spectrum, beta, site, freq, weight.__setitem__)  # each run's weights copied into place
    if float(weight.min()) < -1e-10:
        raise NumericalConsistencyError(f"negative line weight {weight.min()}")
    np.clip(weight, 0.0, None, out=weight)
    if group_atol is None:
        group_atol = 1e-10 * max(1.0, -float(freq.min()), float(freq.max()))
    return SpectralLines.merged(freq, weight, group_atol)


def chi2_E_quadratic(spectrum: BogoliubovSpectrum, beta: float, site: int) -> Chi2Result:
    """Environment coefficient χ⁽²⁾_E = ½ Σ_l w_l f_β(ω_l) for a weak X_j
    measurement on the Gibbs chain, over the unmerged lines of
    :func:`weak_x_lines`: χ_E is linear in the weights, so it needs no merge.

    One array holds the terms w_l f_β(ω_l), each run's frequencies turned
    into its terms in place; beside it, only the line kernel's band buffers
    are held.  A weight below −1e-10 raises, as in :func:`weak_x_lines`.
    """
    n = spectrum.n_modes
    terms = np.empty(n * (2 * n - 1))
    lowest = np.inf

    def weigh(where: slice, weight: np.ndarray) -> None:
        """The run's frequencies become w f_β(ω)."""
        nonlocal lowest
        out = terms[where]
        f_beta_in_place(out, beta)
        if weight.size:
            lowest = np.minimum(lowest, weight.min())
        np.maximum(weight, 0.0, out=weight)  # np.clip(weight, 0.0, None), unwrapped
        with np.errstate(invalid="ignore"):  # an overflowed f_β; _chi2_E rejects the nan
            out *= weight

    _x_lines(spectrum, beta, site, terms, weigh)
    if lowest < -1e-10:
        raise NumericalConsistencyError(f"negative line weight {lowest}")
    return _chi2_E(0.5 * float(np.sum(terms)), "spectral")
