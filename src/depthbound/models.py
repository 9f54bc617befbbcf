"""Dense spin models: Pauli-term Hamiltonians, their thermal eigensystems,
Gibbs states, dynamical correlation spectra, and the finite-difference
oracle for the second-order Holevo coefficients.

The workhorse model is the open transverse-field Ising chain

    H = − sum_j Z_j Z_{j+1} − g sum_j X_j,

which doubles as the reference system for the free-fermion backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import (
    DENSE_QUBIT_CAP,
    DensityOperator,
    NumericalConsistencyError,
    apply_on_sites,
)
from .purification import MeasurementSpec, apply_measurement, canonical_purification, holevo_information

__all__ = [
    "PAULI",
    "SpinHamiltonian",
    "build_tfim",
    "ParitySector",
    "ThermalEigensystem",
    "gibbs_state",
    "SpectralLines",
    "LineGroups",
    "dynamical_correlation",
    "OracleEstimate",
    "holevo_finite_difference",
]

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


@dataclass(frozen=True)
class SpinHamiltonian:
    """Sum of Pauli strings: terms are (coefficient, ((site, letter), ...))."""

    n_sites: int
    terms: tuple[tuple[float, tuple[tuple[int, str], ...]], ...]

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.n_sites > DENSE_QUBIT_CAP:
            raise ValueError(f"{self.n_sites} sites exceeds the dense cap {DENSE_QUBIT_CAP}")
        for coeff, ops in self.terms:
            sites = [s for s, _ in ops]
            if len(set(sites)) != len(sites):
                raise ValueError("repeated site in a term")
            for s, letter in ops:
                if not 0 <= s < self.n_sites:
                    raise ValueError(f"site {s} out of range")
                if letter not in ("X", "Y", "Z"):
                    raise ValueError(f"unknown Pauli letter {letter}")

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_sites))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, built column-wise from bit masks.

        A Pauli string maps basis state |j> to phase(j) |j XOR flip>, where
        X and Y set the flip bits, Z and Y contribute (−1)^{bit}, and each Y
        a factor i.  Real unless an odd number of Y letters survives.
        """
        n = self.n_sites
        d = 2**n
        cols = np.arange(d)
        # bits[s] is the state of site s in every column; site 0 is the MSB.
        bits = (cols[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1
        n_y = [sum(letter == "Y" for _, letter in ops) for _, ops in self.terms]
        out = np.zeros((d, d), dtype=np.complex128 if any(k % 2 for k in n_y) else np.float64)
        flat = out.reshape(-1)
        for (coeff, ops), k in zip(self.terms, n_y):
            flip = 0
            signs = np.ones(d)
            for site, letter in ops:
                if letter != "Z":
                    flip |= 1 << (n - 1 - site)
                if letter != "X":
                    signs *= 1 - 2 * bits[site]
            phase = (1, 1j, -1, -1j)[k % 4]
            flat[(cols ^ flip) * d + cols] += (coeff * phase) * signs
        if out.dtype == np.complex128 and float(np.max(np.abs(out.imag))) == 0.0:
            return np.ascontiguousarray(out.real)
        return out


def build_tfim(n: int, g: float) -> SpinHamiltonian:
    """Open transverse-field Ising chain, H = −Σ Z_j Z_{j+1} − g Σ X_j."""
    if n < 2:
        raise ValueError("the chain needs at least two sites")
    terms: list[tuple[float, tuple[tuple[int, str], ...]]] = []
    for j in range(n - 1):
        terms.append((-1.0, ((j, "Z"), (j + 1, "Z"))))
    for j in range(n):
        terms.append((-float(g), ((j, "X"),)))
    return SpinHamiltonian(n, tuple(terms))


@dataclass(frozen=True)
class ParitySector:
    """Eigenpairs of a Hamiltonian in one sector of the global flip ∏X.

    ``sign`` is the sector's ∏X eigenvalue ±1; its basis states are
    (|i⟩ + sign |d−1−i⟩)/√2 for i < m = d/2.  ``sign`` 0 marks the whole space
    in the computational basis, for an H without the symmetry.  ``vectors``
    holds the eigenvectors as columns in the sector's basis, in the order of
    ``energies``.
    """

    sign: int
    energies: np.ndarray
    vectors: np.ndarray

    def embed(self, block: np.ndarray) -> np.ndarray:
        """The rows of a block in the sector's basis, written in the
        computational basis: [x; sign·Jx]/√2 (x itself for sign 0)."""
        if not self.sign:
            return block
        m = block.shape[0]
        out = np.empty((2 * m,) + block.shape[1:], dtype=block.dtype)
        np.multiply(block, math.sqrt(0.5), out=out[:m])
        np.multiply(block[::-1], self.sign * math.sqrt(0.5), out=out[m:])
        return out

    def flip(self, position: int, n: int) -> tuple[np.ndarray, int]:
        """X on the site at register ``position`` of ``n`` sites, as a signed
        permutation of the sector's basis: X c = sign · c[perm].

        X commutes with ∏X, so it maps each sector onto itself.  On site 0
        (the most significant bit) of a parity sector it is sign·J, the
        reversal i ↦ m−1−i; on any other site, or without sectors, it flips
        the site's bit of the index.
        """
        index = np.arange(self.vectors.shape[0])
        if self.sign and position == 0:
            return index[::-1], self.sign
        return index ^ (1 << (n - 1 - position)), 1


class ThermalEigensystem:
    """Eigendecomposition H = V diag(energies) V† of a dense Hamiltonian.

    Diagonalize once per model; the Gibbs weights, the Gibbs state and every
    eigenbasis quantity then follow at any beta without another ``eigh``.
    An H that commutes with the global flip ∏X (the TFIM, or any model whose
    terms each carry an even number of Z and Y letters) on n >= 2 sites is
    diagonalized in its two parity sectors of half the dimension, and its
    eigenvectors stay in those ``sectors`` as two m×m blocks (m = d/2).  A
    sector block that is also symmetric under the chain reflection
    j ↔ n−1−j, as the open TFIM's are, is diagonalized in the reflection's
    two eigenspaces (:func:`_sector_eigh`).
    :meth:`marginal`, :meth:`rotate_x` and :meth:`projected_factors` work
    from the blocks and form no d×d state; ``vectors`` assembles the full V
    on each access.  ``energies`` are ascending for a sectored H and in the
    caller's order otherwise; ``vectors`` and :meth:`weights` follow them.
    """

    def __init__(self, energies: np.ndarray, vectors: np.ndarray, sites: Sequence[int]):
        """A full eigendecomposition in the computational basis (one sector)."""
        self._set((ParitySector(0, np.asarray(energies), np.asarray(vectors)),), sites)

    def _set(self, sectors: Sequence[ParitySector], sites: Sequence[int]) -> None:
        self.sectors = tuple(sectors)
        self.sites = tuple(sites)
        energies = np.concatenate([s.energies for s in self.sectors])
        rank = np.arange(energies.size)
        if len(self.sectors) > 1:
            order = np.argsort(energies, kind="stable")
            energies, rank = energies[order], np.argsort(order)
        self.energies = energies
        # The positions in ``energies`` of each sector's eigenpairs.
        self._columns = tuple(np.split(rank, np.cumsum([s.energies.size for s in self.sectors])[:-1]))

    @classmethod
    def of(cls, hamiltonian: SpinHamiltonian | np.ndarray | ThermalEigensystem) -> ThermalEigensystem:
        """Diagonalize a Hamiltonian (an eigensystem is returned as is)."""
        if isinstance(hamiltonian, ThermalEigensystem):
            return hamiltonian
        if isinstance(hamiltonian, SpinHamiltonian):
            # sum |c| bounds |E|; past the float range the eigensolver fails.
            scale = sum(abs(c) for c, _ in hamiltonian.terms)
            if not math.isfinite(scale):
                raise NumericalConsistencyError(f"the energies overflow: sum of |coefficients| = {scale:g}")
            h, sites = hamiltonian.to_matrix(), hamiltonian.sites
        else:
            h = np.asarray(hamiltonian)
            n = int(round(math.log2(h.shape[0])))
            if h.shape != (2**n, 2**n):
                raise ValueError("Hamiltonian dimension must be a power of two")
            sites = tuple(range(n))
        # n >= 2: X on site 0 then pairs the basis states of each sector.
        if h.shape[0] > 2 and np.array_equal(h, h[::-1, ::-1]):
            blocks = _parity_blocks(h)
            del h  # the blocks carry all of H; free it before the eigh
            sectors = []
            while blocks:  # each block is released before the next is split
                sign, block = blocks.pop(0)
                sectors.append(_sector_eigh(sign, block, len(sites)))
                del block
            eig = cls.__new__(cls)
            eig._set(sectors, sites)
            return eig
        w, v = np.linalg.eigh(h)
        return cls(w, v, sites)

    @property
    def vectors(self) -> np.ndarray:
        """The full V, columns in the order of ``energies``."""
        if len(self.sectors) == 1:
            return self.sectors[0].vectors
        d = self.energies.size
        out = np.empty((d, d), dtype=np.result_type(*(s.vectors for s in self.sectors)))
        for sector, cols in zip(self.sectors, self._columns):
            out[:, cols] = sector.embed(sector.vectors)
        return out

    def weights(self, beta: float) -> np.ndarray:
        """Gibbs weights p_i = e^{−beta E_i}/Z, max-shift stabilized: with
        the ground energy at 0, sum(e^{−beta E_i}) lies in [1, d]."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        e = self.energies - self.energies.min()
        # beta E_i past the float range is inf, and exp(−inf) = 0.
        with np.errstate(over="ignore"):
            x = -beta * e
        logz = float(np.log(np.sum(np.exp(x))))
        return np.exp(x - logz)

    def sector_weights(self, beta: float) -> tuple[np.ndarray, ...]:
        """:meth:`weights` split by sector, each in its sector's order."""
        p = self.weights(beta)
        return tuple(p[cols] for cols in self._columns)

    def rotate(self, op: np.ndarray, op_sites: Sequence[int]) -> np.ndarray:
        """V† (O ⊗ I) V for a local operator O on ``op_sites``."""
        v = self.vectors
        n = len(self.sites)
        # The column index of V acts as n extra qubits behind the register.
        columns = tuple(range(max(self.sites) + 1, max(self.sites) + 1 + n))
        register = self.sites + columns
        applied = apply_on_sites(v.reshape(-1), register, np.asarray(op), op_sites)
        return v.conj().T @ applied.reshape(v.shape)

    def rotate_x(self, site: int) -> tuple[np.ndarray, ...]:
        """V† X_site V as its diagonal blocks, one per sector, in each
        sector's order: x† X x with X the signed permutation of
        :meth:`ParitySector.flip`."""
        position = self.sites.index(site)
        blocks = []
        for sector in self.sectors:
            perm, sign = sector.flip(position, len(self.sites))
            x = sector.vectors
            blocks.append(sign * (x.conj().T @ x[perm]))
        return tuple(blocks)

    def marginal(self, beta: float, keep: Sequence[int]) -> DensityOperator:
        """The Gibbs state's marginal on ``keep`` (in that order), without
        forming the Gibbs state.

        With W = V√p in each sector, ρ = Σ W W†; the kept sites index the
        rows of W and everything else, the eigenstate index included, is
        summed over in one (d_keep × d·d_rest) product per sector.
        """
        keep = tuple(keep)
        n = len(self.sites)
        pos = [self.sites.index(s) for s in keep]
        rest = [i for i in range(n) if i not in pos]

        def part(sector: ParitySector, p: np.ndarray) -> np.ndarray:
            # A function of its own, so that one sector's W is freed before the next.
            w = sector.embed(sector.vectors * np.sqrt(p))
            t = w.reshape((2,) * n + (-1,)).transpose(pos + rest + [n]).reshape(2 ** len(keep), -1)
            return t @ t.conj().T

        mat = sum(part(sector, p) for sector, p in zip(self.sectors, self.sector_weights(beta)))
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"Gibbs marginal trace deviates by {tr - 1.0}")
        return DensityOperator(mat, keep, check=False)

    def projected_factors(self, beta: float, site: int) -> tuple[tuple[np.ndarray, ...], ...]:
        """Factors of Π_a ρ Π_a for the outcomes a = −1, +1 of X_site.

        Π_a = (I + a X_site)/2 commutes with ∏X.  In each sector its range is
        spanned by (e_i + a·sign·e_perm(i))/√2 over the pairs i < perm(i) of
        :meth:`ParitySector.flip`, so with W = V√p the rows
        Y = (W[i] + a·sign·W[perm(i)])/√2 give Π_a ρ Π_a the nonzero
        spectrum of the blocks Y Y† together: one block of dimension d/4 per
        parity sector, or d/2 without sectors.  Returns, per outcome, one Y
        per sector.
        """
        position = self.sites.index(site)
        factors: tuple[list, list] = ([], [])
        for sector, p in zip(self.sectors, self.sector_weights(beta)):
            perm, sign = sector.flip(position, len(self.sites))
            lo = np.flatnonzero(perm > np.arange(perm.size))
            w = sector.vectors * np.sqrt(p)
            for rows, a in zip(factors, (-1, 1)):
                rows.append((w[lo] + (a * sign) * w[perm[lo]]) * math.sqrt(0.5))
        return tuple(tuple(rows) for rows in factors)


def _parity_blocks(h: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The blocks of a centrosymmetric Hermitian H in its two ∏X sectors.

    With site 0 the most significant bit, ∏X is the exchange matrix J, and
    H = JHJ makes H = [[A, C], [JCJ, JAJ]].  Its eigenvectors are
    [x; ±Jx]/√2 for the eigenvectors x of the m×m blocks A ± CJ (m = d/2).
    """
    m = h.shape[0] // 2
    a, cj = h[:m, :m], h[:m, m:][:, ::-1]
    return [(sign, a + sign * cj) for sign in (1, -1)]


def _reflection(n: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The chain reflection j ↔ n−1−j on the basis of the ∏X sector ``sign``,
    as a signed permutation R e_i = sigma_i e_perm(i).

    R reverses the n bits of a basis index and commutes with ∏X.  With r the
    reversal of i < m = 2ⁿ⁻¹, R maps (|i⟩ + sign|d−1−i⟩)/√2 to the sector
    state of r when r < m, and to sign times that of d−1−r otherwise.
    """
    d, m = 2**n, 2 ** (n - 1)
    index = np.arange(m)
    r = np.zeros(m, dtype=index.dtype)
    for k in range(n):
        r |= ((index >> k) & 1) << (n - 1 - k)
    high = r >= m
    return np.where(high, d - 1 - r, r), np.where(high, float(sign), 1.0)


def _sector_eigh(sign: int, block: np.ndarray, n: int) -> ParitySector:
    """Eigenpairs of one parity block, split by the chain reflection when
    the block is exactly symmetric under it.

    R is an involution, so it pairs the sector basis states a < perm(a) and
    fixes the others.  Its t = ±1 eigenspace is spanned by
    (e_a + t·sigma_a e_perm(a))/√2 over the pairs and by the fixed e_a with
    sigma_a = t; with R B R = B the block there has the entries
    c_a c_a′ (B[a, a′] + t·sigma_a′ B[a, perm(a′)]), with c = 1 on pairs and
    1/√2 on fixed points.  Each half is diagonalized on its own, and the
    eigenvectors are written back in the sector basis, in ascending energy.
    """
    perm, sigma = _reflection(n, sign)
    mirrored = block[np.ix_(perm, perm)]
    mirrored *= sigma[:, None]
    mirrored *= sigma
    symmetric = np.array_equal(mirrored, block)
    del mirrored
    if not symmetric:
        return ParitySector(sign, *np.linalg.eigh(block))
    m = block.shape[0]
    # The long-lived output first, before the transient halves.
    vectors = np.zeros((m, m), dtype=block.dtype)
    index = np.arange(m)
    pairs = index[index < perm]
    fixed = index[index == perm]
    halves = []
    for t in (1.0, -1.0):
        rows = np.concatenate([pairs, fixed[sigma[fixed] == t]])
        half = block[np.ix_(rows, rows)]
        partner = block[np.ix_(rows, perm[rows])]
        partner *= t * sigma[rows]
        half += partner
        del partner
        scale = np.ones(rows.size)
        scale[pairs.size:] = math.sqrt(0.5)
        half *= scale[:, None]
        half *= scale
        halves.append((t, rows, *np.linalg.eigh(half)))
        del half
    energies = np.concatenate([w for _, _, w, _ in halves])
    order = np.argsort(energies, kind="stable")
    rank = np.argsort(order)
    start = 0
    for t, rows, w, y in halves:
        cols = rank[start:start + w.size]
        start += w.size
        paired = y[:pairs.size] * math.sqrt(0.5)
        vectors[np.ix_(pairs, cols)] = paired
        vectors[np.ix_(perm[pairs], cols)] = (t * sigma[pairs])[:, None] * paired
        vectors[np.ix_(rows[pairs.size:], cols)] = y[pairs.size:]
    return ParitySector(sign, energies[order], vectors)


def gibbs_state(
    hamiltonian: SpinHamiltonian | np.ndarray | ThermalEigensystem, beta: float
) -> DensityOperator:
    """rho = e^{−beta H}/Z via eigendecomposition with max-shift stabilization."""
    eig = ThermalEigensystem.of(hamiltonian)
    p = eig.weights(beta)
    v = eig.vectors
    mat = (v * p) @ v.conj().T
    tr = float(np.real(np.trace(mat)))
    if abs(tr - 1.0) > 1e-12:
        raise NumericalConsistencyError(f"Gibbs state trace deviates by {tr - 1.0}")
    return DensityOperator(mat, eig.sites, check=False)


# ---------------------------------------------------------------------------
# Dynamical correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralLines:
    """Discrete spectral decomposition of a connected autocorrelation.

    C(t) = sum_l weights[l] * exp(−i * frequencies[l] * t).  Weights are
    non-negative; the omega=0 group has the disconnected <O>² part already
    subtracted.
    """

    frequencies: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float).reshape(-1)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if freqs.shape != weights.shape:
            raise ValueError("frequencies and weights must have equal lengths")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def merged(cls, frequencies: np.ndarray, weights: np.ndarray, atol: float) -> "SpectralLines":
        """Lines with near-degenerate frequencies merged.

        After sorting, neighbours closer than ``atol`` fall into one group
        (chains included); a group carries its total weight at the
        weight-averaged frequency, or at the plain mean when its weight is
        below 1e-300.
        """
        groups = LineGroups.of(frequencies, atol)
        return groups.reduce(np.asarray(weights, dtype=float)[groups.order])

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def sample(self, times: np.ndarray) -> np.ndarray:
        """C(t) on a time grid."""
        t = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(t, self.frequencies))
        return phases @ self.weights.astype(complex)


@dataclass(frozen=True)
class LineGroups:
    """The weight-independent half of :meth:`SpectralLines.merged`.

    ``order`` sorts the input frequencies into ``frequencies``; the groups
    start at ``starts`` in that order, and ``means`` holds each group's plain
    mean frequency (its sum over its count).  One grouping serves any number
    of weight vectors over the same lines, such as one per β.
    """

    order: np.ndarray
    frequencies: np.ndarray
    starts: np.ndarray
    means: np.ndarray

    @classmethod
    def of(cls, frequencies: np.ndarray, atol: float) -> "LineGroups":
        order = np.argsort(frequencies)
        freq = np.asarray(frequencies, dtype=float)[order]
        if freq.size == 0:
            return cls(order, freq, np.zeros(0, dtype=int), freq)
        starts = np.concatenate([[0], np.flatnonzero(np.diff(freq) > atol) + 1])
        counts = np.diff(np.concatenate([starts, [freq.size]]))
        return cls(order, freq, starts, np.add.reduceat(freq, starts) / counts)

    def reduce(self, weights: np.ndarray) -> SpectralLines:
        """Merged lines for ``weights`` listed in sorted order (``order``)."""
        weight = np.asarray(weights, dtype=float)
        if weight.size == 0:
            return SpectralLines(self.frequencies, weight)
        merged_w = np.add.reduceat(weight, self.starts)
        sum_fw = np.add.reduceat(self.frequencies * weight, self.starts)
        heavy = merged_w > 1e-300
        merged_f = np.where(heavy, sum_fw / np.where(heavy, merged_w, 1.0), self.means)
        return SpectralLines(merged_f, merged_w)


def dynamical_correlation(
    hamiltonian: SpinHamiltonian | np.ndarray | ThermalEigensystem,
    beta: float,
    observable: np.ndarray,
    *,
    times: Sequence[float] | None = None,
    group_atol: float | None = None,
) -> SpectralLines | np.ndarray:
    """Connected autocorrelation C(t) = <O(t)O(0)> − <O>² of a Gibbs state.

    With ``times`` given, returns complex samples C(t); otherwise returns the
    discrete :class:`SpectralLines` at frequencies omega = E_j − E_i with
    weights p_i |O_ij|², merged over near-degenerate frequencies, with <O>²
    subtracted from the omega=0 group (which stays non-negative).
    """
    eig = ThermalEigensystem.of(hamiltonian)
    p = eig.weights(beta)
    e = eig.energies
    v = eig.vectors
    o_t = v.conj().T @ np.asarray(observable) @ v
    mean = float(np.real(np.sum(p * np.diagonal(o_t))))
    omega = e[None, :] - e[:, None]
    weights = p[:, None] * np.abs(o_t) ** 2
    freqs = omega.reshape(-1)
    wts = weights.reshape(-1)
    keep = wts > 1e-300
    freqs, wts = freqs[keep], wts[keep]
    if group_atol is None:
        group_atol = 1e-10 * max(1.0, float(np.max(np.abs(freqs))) if freqs.size else 1.0)
    merged = SpectralLines.merged(freqs, wts, group_atol)
    freqs, wts = merged.frequencies, merged.weights
    # Connected part: remove <O>² from the static group.
    zero_idx = int(np.argmin(np.abs(freqs))) if freqs.size else -1
    if zero_idx < 0 or abs(freqs[zero_idx]) > group_atol:
        freqs = np.append(freqs, 0.0)
        wts = np.append(wts, 0.0)
        zero_idx = freqs.size - 1
    wts[zero_idx] -= mean * mean
    if wts[zero_idx] < -1e-10:
        raise NumericalConsistencyError(f"static connected weight {wts[zero_idx]} below -1e-10")
    wts[zero_idx] = max(wts[zero_idx], 0.0)
    lines = SpectralLines(freqs, wts)
    if times is not None:
        return lines.sample(np.asarray(times, dtype=float))
    return lines


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleEstimate:
    """Richardson-extrapolated chi(mu)/mu² with a grid-refinement uncertainty."""

    value: float
    uncertainty: float
    samples: tuple[tuple[float, float], ...]  # (mu, chi(mu)/mu²)


def _richardson(values: Sequence[float]) -> tuple[float, float]:
    """Extrapolate chi/mu² samples on a ratio-2 geometric mu grid to mu→0.

    chi(mu)/mu² has an even Taylor expansion in mu, so each Richardson stage
    cancels the leading mu² error term (weights 4/3, 16/15, ...).
    """
    table = [list(values)]
    factor = 4.0
    while len(table[-1]) > 1:
        prev = table[-1]
        table.append(
            [(factor * prev[i + 1] - prev[i]) / (factor - 1.0) for i in range(len(prev) - 1)]
        )
        factor *= 4.0
    best = table[-1][0]
    if len(table) >= 2 and len(table[-2]) >= 2:
        runner = table[-2][-1]
        uncertainty = abs(best - runner)
    else:
        uncertainty = abs(values[-1] - best)
    return best, uncertainty


def holevo_finite_difference(
    hamiltonian: SpinHamiltonian,
    beta: float,
    observable: np.ndarray,
    obs_sites: Sequence[int],
    region: Sequence[int],
    *,
    mu_grid: Sequence[float] = (0.02, 0.01, 0.005, 0.0025),
    rel_tol: float = 1e-3,
) -> OracleEstimate:
    """Finite-difference oracle for the quadratic Holevo coefficient chi2.

    With elements F_pm = I/2 pm mu O the Holevo quantity of the conditioned
    ensemble opens as chi(mu) = 4 mu^2 chi2 + O(mu^4) (the binary-outcome KL
    expansion carries (2 mu)^2/2 and the susceptibility convention another
    1/2), so each sample is chi(mu)/(4 mu^2) and the grid is Richardson-
    extrapolated to mu -> 0.

    ``region`` may be system sites (chi_B-type) or the string "env" for the
    purification environment.  The mu grid must be geometric with ratio 2
    (checked); the estimate errors out if the grid-refinement uncertainty
    exceeds ``rel_tol`` times the value.
    """
    mus = [float(m) for m in mu_grid]
    if len(mus) < 3:
        raise ValueError("need at least three mu values for the extrapolation")
    if any(not 0.0 < m <= 0.05 for m in mus):
        raise ValueError("mu values must lie in (0, 0.05]")
    for a, b in zip(mus, mus[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError("mu grid must be geometric with ratio 2")
    rho = gibbs_state(hamiltonian, beta)
    psi = canonical_purification(rho)
    target = psi.env_sites if isinstance(region, str) and region == "env" else tuple(region)
    samples = []
    for mu in mus:
        m = MeasurementSpec.weak(observable, mu, tuple(obs_sites))
        ens = apply_measurement(psi, m)
        chi = holevo_information(ens, target)
        samples.append((mu, chi / (4.0 * mu * mu)))
    value, uncertainty = _richardson([s[1] for s in samples])
    if uncertainty > max(rel_tol * abs(value), 1e-12):
        raise ValueError(
            f"oracle uncertainty {uncertainty} exceeds {rel_tol} x |{value}|; refine the grid"
        )
    return OracleEstimate(value, uncertainty, tuple(samples))
