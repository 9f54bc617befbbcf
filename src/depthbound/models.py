"""Dense spin models: Pauli-term Hamiltonians, their thermal eigensystems
and Gibbs marginals, and spectral lines.

Dense Gibbs states, dynamical correlation spectra and the finite-difference
oracle for the second-order Holevo coefficients are oracle routes in
:mod:`depthbound.oracles`; their names resolve here too.

The workhorse model is the open transverse-field Ising chain

    H = − sum_j Z_j Z_{j+1} − g sum_j X_j,

which doubles as the reference system for the free-fermion backend.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _resolver
from ._lapack import eigh_in_place
from .states import DENSE_QUBIT_CAP, DensityOperator, NumericalConsistencyError

__all__ = [
    "PAULI",
    "SpinHamiltonian",
    "build_tfim",
    "ParitySector",
    "ReflectionBasis",
    "reflection_basis",
    "SignedMap",
    "EigenBlock",
    "ThermalEigensystem",
    "gibbs_state",
    "SpectralLines",
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

    @property
    def flip_symmetric(self) -> bool:
        """Whether H commutes with the global flip ∏X, read from the terms:
        a Pauli string commutes with ∏X iff it has an even number of Z and Y
        letters."""
        return all(sum(letter != "X" for _, letter in ops) % 2 == 0 for _, ops in self.terms)

    def _entries(self, columns: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Each term as a signed permutation over ``columns``: its flip mask
        and its entries, the term mapping basis state |j⟩ to entry(j)·|j XOR
        flip⟩.  X and Y set the flip bits, Z and Y contribute (−1)^{bit}, and
        each Y a factor i."""
        n = self.n_sites
        # bits[s] is the state of site s in every column; site 0 is the MSB.
        bits = (columns[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1
        for coeff, ops in self.terms:
            flip = 0
            signs = np.ones(columns.size)
            for site, letter in ops:
                if letter != "Z":
                    flip |= 1 << (n - 1 - site)
                if letter != "X":
                    signs *= 1 - 2 * bits[site]
            phase = (1, 1j, -1, -1j)[sum(letter == "Y" for _, letter in ops) % 4]
            yield flip, (coeff * phase) * signs

    def _zeros(self, dim: int, cols: int | None = None) -> np.ndarray:
        """A zero matrix of H's type (dim × dim, or dim × cols): complex
        when an odd number of Y letters survives in some term."""
        odd_y = any(sum(letter == "Y" for _, letter in ops) % 2 for _, ops in self.terms)
        return np.zeros((dim, dim if cols is None else cols), dtype=np.complex128 if odd_y else np.float64)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, built column-wise from bit masks; real unless an odd
        number of Y letters survives."""
        d = 2**self.n_sites
        cols = np.arange(d)
        out = self._zeros(d)
        flat = out.reshape(-1)
        for flip, entries in self._entries(cols):
            flat[(cols ^ flip) * d + cols] += entries
        return _real_if_exact(out)

    def sector_block(self, sign: int) -> np.ndarray:
        """The block of H in the ∏X sector ``sign`` = ±1, from the terms.

        With site 0 the most significant bit, ∏X is the exchange matrix J,
        and a ∏X-symmetric H = [[A, C], [JCJ, JAJ]] has the eigenvectors
        [x; sign·Jx]/√2 for the eigenvectors x of the m×m blocks A + sign·CJ
        (m = d/2).  A term whose flip leaves site 0 alone writes into A; one
        that flips site 0 writes into C, and its column d−1−j of H reaches
        column j of CJ, at row (d−1−j) XOR flip < m with the entry of column
        j (an even number of Z and Y letters makes the signs of j and d−1−j
        agree).  H itself is never formed.
        """
        self._check_sectors()
        m = 2 ** (self.n_sites - 1)
        cols = np.arange(m)
        out = self._zeros(m)
        flat = out.reshape(-1)
        for rows, entries in self._sector_entries(sign, cols):
            flat[rows * m + cols] += entries
        return _real_if_exact(out)

    @property
    def mirror_symmetric(self) -> bool:
        """Whether H commutes with the chain reflection j ↔ n−1−j, read from
        the terms: the summed coefficient of each Pauli string equals that of
        its mirror image."""
        n = self.n_sites
        coeffs: dict[tuple[tuple[int, str], ...], float] = {}
        for coeff, ops in self.terms:
            key = tuple(sorted(ops))
            coeffs[key] = coeffs.get(key, 0.0) + coeff
        return all(coeffs.get(tuple(sorted((n - 1 - s, letter) for s, letter in ops)), 0.0) == coeff
                   for ops, coeff in coeffs.items())

    @property
    def largest_block(self) -> int:
        """The rows of the largest block :meth:`ThermalEigensystem.of`
        diagonalizes, read from the terms alone: 2ⁿ without the flip
        symmetry, a sector's m = 2ⁿ⁻¹ without the reflection, and with both
        the larger reflection half.  The reflection fixes 2^⌊n/2⌋ states of
        the sector ∏X = +1 (palindromes and, for even n, antipalindromes),
        all in its half R = +1, and pairs the rest: that half has
        (m + 2^⌊n/2⌋)/2 rows, 528 at n = 11 and 1056 at n = 12."""
        n = self.n_sites
        if n < 2 or not self.flip_symmetric:
            return 2**n
        if not self.mirror_symmetric:
            return 2 ** (n - 1)
        return 2 ** (n - 2) + 2 ** (n // 2 - 1)

    def half_block(self, sign: int, t: int) -> np.ndarray:
        """The block of H on the reflection half R = ``t`` of the ∏X sector
        ``sign``, from the terms, in the orthonormal basis of the half
        (:class:`ReflectionBasis`); no m×m block is formed.

        With B the sector block and R B R = B, the half has the entries
        c_a c_a′ (B[a, a′] + t·sigma_a′ B[a, perm(a′)]) over its basis states
        a, a′, with c = 1 on pairs and 1/√2 on fixed states.  Each term is a
        signed permutation of the sector basis, so its columns a′ and
        perm(a′) each hold one entry; the entries that land on a row of the
        half are summed, term by term, into the direct and the partner part,
        which then combine as above.  Only rows a of the half are read: by
        the symmetry, the other rows repeat them.
        """
        self._check_sectors()
        if not self.mirror_symmetric:
            raise ValueError("the reflection halves need terms that are symmetric under j <-> n-1-j")
        basis = reflection_basis(self.n_sites, sign)
        rows, partners, sigma = basis.half(t)
        index = _half_map(self.n_sites, sign, t).row
        k = rows.size
        columns = np.arange(k)
        direct = self._zeros(k)
        partner = self._zeros(k)
        for source, part in ((rows, direct), (partners, partner)):
            for target, entries in self._sector_entries(sign, source):
                row = index[target]
                hit = rows[row] == target  # the basis states of the half, not their partners
                part[row[hit], columns[hit]] += entries[hit]
        partner *= t * sigma
        direct += partner
        del partner
        scale = np.ones(k)
        scale[basis.pairs.size:] = math.sqrt(0.5)
        direct *= scale[:, None]
        direct *= scale
        return _real_if_exact(direct)

    def _check_sectors(self) -> None:
        if self.n_sites < 2 or not self.flip_symmetric:
            raise ValueError("the sector blocks need n >= 2 and terms that commute with the global flip")

    def _sector_entries(self, sign: int, cols: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each term in the sector ``sign`` as a signed permutation over the
        sector states ``cols``: the row and the entry of each column."""
        d = 2**self.n_sites
        m = d // 2
        for flip, entries in self._entries(cols):
            if flip & m:
                yield cols ^ flip ^ (d - 1), sign * entries
            else:
                yield cols ^ flip, entries


def _real_if_exact(mat: np.ndarray) -> np.ndarray:
    """A complex matrix with no imaginary part, as a real one."""
    if mat.dtype == np.complex128 and not mat.imag.any():
        return np.ascontiguousarray(mat.real)
    return mat


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
class ReflectionBasis:
    """The chain reflection j ↔ n−1−j on the basis of one ∏X sector, and the
    bases of its two eigenspaces R = ±1, the halves (:func:`reflection_basis`).

    R reverses the bits of a basis index and commutes with ∏X, so on the
    sector basis it is a signed permutation R e_a = sigma_a e_perm(a), an
    involution: it pairs the states a < perm(a) (``pairs``, with
    ``partners`` = perm(pairs) and their ``sigma``) and fixes the others
    (``fixed``: those with sigma = +1, then those with sigma = −1).  The half
    R = t has the orthonormal basis (e_a + t·sigma_a e_perm(a))/√2 over the
    pairs, then e_a over the fixed states with sigma_a = t.
    """

    pairs: np.ndarray
    partners: np.ndarray
    sigma: np.ndarray
    fixed: tuple[np.ndarray, np.ndarray]

    def half(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The half R = t: its basis states a (pairs, then fixed), their
        partners perm(a), and their sigma."""
        fixed = self.fixed[0 if t == 1 else 1]
        sigma = np.concatenate([self.sigma, np.full(fixed.size, t, dtype=self.sigma.dtype)])
        return np.concatenate([self.pairs, fixed]), np.concatenate([self.partners, fixed]), sigma


@functools.lru_cache(maxsize=None)
def reflection_basis(n: int, sign: int) -> ReflectionBasis:
    """The reflection on the ∏X sector ``sign`` of ``n`` sites.

    With r the reversal of i < m = 2ⁿ⁻¹, R maps the sector state of i to
    that of r when r < m, and to sign times that of d−1−r otherwise.  One
    basis serves every eigensystem of n sites (n is at most the dense cap,
    so the cache stays small), and its arrays are read-only.
    """
    d, m = 2**n, 2 ** (n - 1)
    states = np.arange(m)
    r = np.zeros(m, dtype=states.dtype)
    for bit in range(n):
        r |= ((states >> bit) & 1) << (n - 1 - bit)
    high = r >= m
    perm = np.where(high, d - 1 - r, r)
    sigma = np.where(high, sign, 1).astype(np.int8)
    # int32 and int8 maps: the basis is held with every eigensystem of n sites.
    pairs = states[states < perm].astype(np.int32)
    fixed = states[states == perm].astype(np.int32)
    arrays = (pairs, perm[pairs].astype(np.int32), sigma[pairs], fixed[sigma[fixed] == 1], fixed[sigma[fixed] == -1])
    for array in arrays:
        array.flags.writeable = False
    pairs, partners, sigma, plus, minus = arrays
    return ReflectionBasis(pairs, partners, sigma, (plus, minus))


@dataclass(frozen=True)
class SignedMap:
    """A block's basis in its sector's basis, both ways: basis vector r is
    Σ_j weights[j, r] e_states[j, r], weights ±1 or 0 (e_r for a sector kept
    whole, e_a + t·sigma_a e_perm(a) over a reflection half's pairs, not
    normalized, then e_a over its fixed states), and sector state i enters
    basis vector ``row[i]`` as ``coef[i]`` (0 outside the block).  So with z
    the block's eigenvectors, row i of them in the sector's basis is
    coef[i]·z[row[i]]."""

    states: np.ndarray
    weights: np.ndarray
    row: np.ndarray
    coef: np.ndarray

    @classmethod
    def of(cls, states: np.ndarray, weights: np.ndarray, m: int) -> SignedMap:
        """The map of these basis vectors in a sector of m states, read-only."""
        row = np.zeros(m, dtype=np.int32)
        coef = np.zeros(m, dtype=np.int8)
        for s, w in zip(states, weights):
            hit = w != 0
            row[s[hit]] = np.flatnonzero(hit)
            coef[s[hit]] = w[hit]
        for array in (states, weights, row, coef):
            array.flags.writeable = False
        return cls(states, weights, row, coef)


@functools.lru_cache(maxsize=None)
def _identity_map(m: int) -> SignedMap:
    """The sector basis of m states as a block's own."""
    return SignedMap.of(np.arange(m, dtype=np.int32)[None], np.ones((1, m)), m)


@functools.lru_cache(maxsize=None)
def _half_map(n: int, sign: int, t: int) -> SignedMap:
    """The basis of the reflection half R = ``t`` of the ∏X sector ``sign``
    of ``n`` sites, shared like :func:`reflection_basis`."""
    basis = reflection_basis(n, sign)
    rows, partners, sigma = basis.half(t)
    weights = np.stack([np.ones(rows.size), t * sigma.astype(float)])
    weights[1, basis.pairs.size:] = 0.0  # a fixed state is its own partner: it enters once
    return SignedMap.of(np.stack([rows, partners]), weights, 2 ** (n - 1))


@dataclass(frozen=True)
class EigenBlock:
    """Eigenpairs of one diagonal block of a sector's Hamiltonian:
    ``energies`` in ``eigh`` order and ``vectors`` in the block's own basis,
    which ``basis`` maps to the sector's.  A reflection half's pair rows
    hold 1/√2 of the orthonormal coordinates, its pairs' basis vectors not
    being normalized."""

    energies: np.ndarray
    vectors: np.ndarray
    basis: SignedMap

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class ParitySector:
    """Eigenpairs of a Hamiltonian in one sector of the global flip ∏X.

    ``sign`` is the sector's ∏X eigenvalue ±1; its basis states are
    (|i⟩ + sign |d−1−i⟩)/√2 for i < m = d/2.  ``sign`` 0 marks the whole space
    in the computational basis, for an H without the symmetry.  The
    eigenpairs are ``blocks`` (:class:`EigenBlock`): one block in the
    sector's basis, or, for a mirror-symmetric H, one per reflection half.
    The sector's columns are its blocks' columns side by side, so its
    ``energies`` ascend within each block, not across the sector.
    :meth:`row_reader` reads rows of the eigenvectors in the sector's basis;
    ``vectors`` assembles them as one block on each access.
    """

    sign: int
    blocks: tuple[EigenBlock, ...]

    @functools.cached_property
    def energies(self) -> np.ndarray:
        return np.concatenate([block.energies for block in self.blocks])

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(*(block.vectors.dtype for block in self.blocks))

    def spans(self) -> Iterator[tuple[EigenBlock, slice]]:
        """Each block with the sector's columns it holds."""
        start = 0
        for block in self.blocks:
            yield block, slice(start, start + block.dim)
            start += block.dim

    @property
    def vectors(self) -> np.ndarray:
        """The eigenvectors as columns in the sector's basis: each block's
        rows z written to the rows ``states[j]`` times ``weights[j]``, or a
        block in the sector's own basis itself, uncopied."""
        if self.blocks[0].basis is _identity_map(self.dim):
            return self.blocks[0].vectors
        out = np.zeros((self.dim,) * 2, dtype=self.dtype)
        for block, cols in self.spans():
            for states, weights in zip(block.basis.states, block.basis.weights):
                hit = weights != 0
                out[states[hit], cols] = weights[hit, None] * block.vectors[hit]
        return out

    def row_reader(self, scale: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """A function of an integer array (of any shape) that gives those
        rows of the eigenvectors in the sector's basis, each entry times the
        ``scale`` of its column: each block's rows ``row[index]`` times
        ``coef[index]``, with the scale folded into a table of the three
        coefficients once."""
        # Row c of a block's table is coefficient c times its scale (c = −1 the last row).
        parts = [(block, cols, np.multiply.outer((0.0, 1.0, -1.0), scale[cols])) for block, cols in self.spans()]
        shape, dtype = (self.dim,), self.dtype

        def read(index: np.ndarray) -> np.ndarray:
            out = np.empty(np.shape(index) + shape, dtype=dtype)
            for block, cols, table in parts:
                rows = block.vectors.take(block.basis.row[index], axis=0)
                rows *= table.take(block.basis.coef[index], axis=0)
                out[..., cols] = rows
            return out

        return read

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
        index = np.arange(self.dim)
        if self.sign and position == 0:
            return index[::-1], self.sign
        return index ^ (1 << (n - 1 - position)), 1


class ThermalEigensystem:
    """Eigendecomposition H = V diag(energies) V† of a dense Hamiltonian.

    Diagonalize once per model; the Gibbs weights, the Gibbs state and every
    eigenbasis quantity then follow at any beta without another ``eigh``.
    A :class:`SpinHamiltonian` on n >= 2 sites whose terms each carry an even
    number of Z and Y letters (the TFIM, say) commutes with the global flip
    ∏X: it is diagonalized in its two parity sectors of half the dimension
    (m = d/2), with no 2ⁿ×2ⁿ matrix.  When its terms are also symmetric
    under the chain reflection j ↔ n−1−j, as the open TFIM's are, each
    sector is diagonalized in the reflection's two eigenspaces, each built
    from the terms (:meth:`SpinHamiltonian.half_block`), and keeps each
    half's eigenvectors as its own block (about one m×m block for both
    sectors together); otherwise each sector block is built from the terms
    (:meth:`SpinHamiltonian.sector_block`) and kept as its m×m
    eigenvectors.  Any other model, and a Hamiltonian given as a matrix, is
    diagonalized in full.  :meth:`marginal`, :meth:`rotate_x` and
    :meth:`projected_factors` work from the ``sectors`` (:class:`ParitySector`)
    and form no d×d state; ``vectors`` assembles the full V on each access.
    ``energies`` are ascending for a sectored H, though a sector's own
    ascend only within each of its blocks, and in the caller's order
    otherwise; ``vectors`` and :meth:`weights` follow them.
    """

    def __init__(self, energies: np.ndarray, vectors: np.ndarray, sites: Sequence[int]):
        """A full eigendecomposition in the computational basis (one sector)."""
        energies = np.asarray(energies)
        block = EigenBlock(energies, np.asarray(vectors), _identity_map(energies.size))
        self._set((ParitySector(0, (block,)),), sites)

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
            sites = hamiltonian.sites
            # n >= 2: X on site 0 then pairs the basis states of each sector.
            if len(sites) >= 2 and hamiltonian.flip_symmetric:
                mirror = hamiltonian.mirror_symmetric
                sectors = [_sector_eigh(hamiltonian, sign, mirror) for sign in (1, -1)]
                eig = cls.__new__(cls)
                eig._set(sectors, sites)
                return eig
            h = hamiltonian.to_matrix()
        else:
            h = np.asarray(hamiltonian)
            n = int(round(math.log2(h.shape[0])))
            if h.shape != (2**n, 2**n):
                raise ValueError("Hamiltonian dimension must be a power of two")
            sites = tuple(range(n))
            h = np.array(h, dtype=np.result_type(h, np.float64), order="C")
        w = eigh_in_place(h)
        return cls(w, h, sites)

    @property
    def vectors(self) -> np.ndarray:
        """The full V, columns in the order of ``energies``."""
        if len(self.sectors) == 1:
            return self.sectors[0].vectors
        d = self.energies.size
        out = np.empty((d, d), dtype=np.result_type(*(s.dtype for s in self.sectors)))
        for sector, cols in zip(self.sectors, self._columns):
            out[:, cols] = sector.embed(sector.vectors)
        return out

    def weights(self, beta: float) -> np.ndarray:
        """Gibbs weights p_i = e^{−beta E_i}/Z, max-shift stabilized: with
        the ground energy at 0, sum(e^{−beta E_i}) lies in [1, d]."""
        if not beta >= 0:  # nan too
            raise ValueError("beta must be non-negative")
        e = self.energies - self.energies.min()
        # beta E_i past the float range is inf, and exp(−inf) = 0.  The ground
        # energies keep exponent 0, also at beta = inf, where −inf · 0 is nan.
        with np.errstate(over="ignore"):
            x = np.multiply(-beta, e, out=np.zeros_like(e), where=e != 0)
        logz = float(np.log(np.sum(np.exp(x))))
        return np.exp(x - logz)

    def sector_weights(self, beta: float) -> tuple[np.ndarray, ...]:
        """:meth:`weights` split by sector, each in its sector's order."""
        p = self.weights(beta)
        return tuple(p[cols] for cols in self._columns)

    def rotate(self, op: np.ndarray, op_sites: Sequence[int]) -> np.ndarray:
        """V† (O ⊗ I) V for a local operator O on ``op_sites``."""
        from .oracles import apply_on_sites

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
        :meth:`ParitySector.flip`, one product per pair of the sector's
        blocks (:func:`_flipped`)."""
        position = self.sites.index(site)
        n = len(self.sites)
        return tuple(_flipped(sector, *sector.flip(position, n)) for sector in self.sectors)

    def marginal(self, beta: float, keep: Sequence[int]) -> DensityOperator:
        """The Gibbs state's marginal on ``keep`` (in that order), without
        forming the Gibbs state.

        With w = x√p a sector's eigenvectors scaled by their Gibbs weights,
        ρ = Σ W W†, with W = [w; sign·Jw]/√2 in a parity sector and W = w
        without sectors.  The rows of w are the states of the sites after
        site 0, and J reverses them, which complements every bit.  With G_t
        the rows of w at the traced index t (the kept bits in ``keep``'s
        order, t on the rest) and Ĝ_t the complemented rows,
        M = Σ_t G_t G_t† and N = Σ_t G_t Ĝ_t† give a sector's term
        ½[[M, sign·N], [sign·N†, JMJ]] when site 0 is kept (in the order
        site 0, then the other kept sites) and ½(M + JMJ) when it is traced.
        The rows are gathered a chunk at a time: no d×m W and no transposed
        copy is formed.
        """
        keep = tuple(keep)
        n = len(self.sites)
        pos = [self.sites.index(s) for s in keep]
        mat = np.zeros((2 ** len(pos),) * 2, dtype=np.result_type(*(s.dtype for s in self.sectors)))
        for sector, p in zip(self.sectors, self.sector_weights(beta)):
            _add_sector_marginal(mat, sector, p, pos, n)
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"Gibbs marginal trace deviates by {tr - 1.0}")
        return DensityOperator(mat, keep, check=False)

    def projected_factors(self, beta: float, site: int) -> Iterator[tuple[int, float, np.ndarray]]:
        """Factors of Π_a ρ Π_a for the outcomes a = −1, +1 of X_site, one
        block at a time.

        Π_a = (I + a X_site)/2 commutes with ∏X.  In each sector its range is
        spanned by (e_i + a·sign·e_perm(i))/√2 over the pairs i < perm(i) of
        :meth:`ParitySector.flip`, so with W = V√p the rows
        Y = (W[i] + a·sign·W[perm(i)])/√2 give Π_a ρ Π_a the nonzero
        spectrum of the blocks Y Y† together: one block of dimension d/4 per
        parity sector, or d/2 without sectors.  Where X maps each of a
        sector's blocks onto itself, as at the mirror-fixed site of a sector
        kept as reflection halves, it is a signed permutation of each
        block's orthonormal basis (:func:`_own_flips`), and each block gives
        its own factors of about half that dimension, read straight from
        the block's eigenvectors (:func:`_scaled_rows`).  Yields (outcome
        index, ‖Y‖², Y Y†) with index 0 for a = −1 and 1 for a = +1
        (:func:`~depthbound.purification.projective_chi_E_factors`).  Y is
        filled in row chunks and freed before its Gram matrix is yielded;
        each Gram matrix is a new array, which the consumer may overwrite.
        """
        position = self.sites.index(site)
        n = len(self.sites)
        for sector, p in zip(self.sectors, self.sector_weights(beta)):
            perm, sign = sector.flip(position, n)
            sq = np.sqrt(p)
            own = _own_flips(sector, perm, sign)
            if own:
                for (block, cols), (q, c) in zip(sector.spans(), own):
                    rows_of = _scaled_rows(block, sq[cols])
                    yield from _projected_blocks(rows_of, q, np.sign(c), block.dim, block.vectors.dtype)
            else:
                eps = np.full(perm.size, float(sign))
                yield from _projected_blocks(sector.row_reader(sq), perm, eps, sector.dim, sector.dtype)


#: The size of one chunk of rows in the loops that stream a sector block,
#: so that their temporaries stay small next to the m×m block.
CHUNK_BYTES = 2**18


def row_chunks(count: int, width: int, budget: int = CHUNK_BYTES) -> Iterator[slice]:
    """Slices over ``count`` rows (or columns) of ``width`` float64 entries,
    each at most ``budget`` bytes (and at least one row)."""
    step = max(1, budget // (8 * max(width, 1)))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _add_sector_marginal(mat: np.ndarray, sector: ParitySector, p: np.ndarray, pos: Sequence[int], n: int) -> None:
    """Add one sector's term of :meth:`ThermalEigensystem.marginal` on the
    register positions ``pos``, in that order, to ``mat``."""
    sq = np.sqrt(p)
    if not sector.sign:
        mat += _gram(sector, sq, _row_index(pos, n), cross=False)[0]
        return
    # The n − 1 sites after site 0 index the rows of x.
    rows = _row_index([q - 1 for q in pos if q], n - 1)
    gram, cross = _gram(sector, sq, rows, cross=0 in pos)
    if cross is None:
        mat += 0.5 * (gram + gram[::-1, ::-1])
        return
    # Each site-0 block goes straight to its place in ``mat``: the other
    # axes of the block keep their order.
    axes = len(pos)
    tensor = mat.reshape((2,) * (2 * axes))
    shape = (2,) * (2 * axes - 2)
    parts = ((0, 0, gram), (1, 1, gram[::-1, ::-1]), (0, 1, sector.sign * cross), (1, 0, sector.sign * cross.conj().T))
    for a, b, part in parts:
        index = [slice(None)] * (2 * axes)
        index[pos.index(0)], index[axes + pos.index(0)] = a, b
        tensor[tuple(index)] += 0.5 * part.reshape(shape)


def _row_index(kept: Sequence[int], bits: int) -> np.ndarray:
    """The rows of a 2^bits-row block as a (2^|kept| × rest) array: the
    bits at the positions ``kept`` (0 the most significant) spell the first
    index, in that order, and the other bits, in ascending position, the
    second."""
    rest = [q for q in range(bits) if q not in kept]
    return np.arange(2**bits).reshape((2,) * bits).transpose(list(kept) + rest).reshape(2 ** len(kept), -1)


def _gram(sector: ParitySector, sq: np.ndarray, rows: np.ndarray, cross: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """M = Σ_t G_t G_t† with G_t = (x√p)[rows[:, t]] for the sector-basis
    eigenvectors x, and with ``cross`` also N = Σ_t G_t Ĝ_t†, Ĝ_t the rows
    complemented (reversed)."""
    k, width = rows.shape[0], sector.dim
    read = sector.row_reader(sq)
    gram = np.zeros((k, k), dtype=sector.dtype)
    mixed = np.zeros((k, k), dtype=sector.dtype) if cross else None
    for t in row_chunks(rows.shape[1], k * width):
        g = read(rows[:, t]).reshape(k, -1)
        gram += g @ g.conj().T
        if cross:
            mixed += g @ read(width - 1 - rows[:, t]).reshape(k, -1).conj().T
    return gram, mixed


def _sector_eigh(hamiltonian: SpinHamiltonian, sign: int, mirror: bool) -> ParitySector:
    """Eigenpairs of the ∏X sector ``sign``: of its block when H is not
    ``mirror``-symmetric, and otherwise of its two reflection halves, each
    built from the terms (:meth:`SpinHamiltonian.half_block`) and kept as
    its own block, its pair rows scaled by 1/√2.  LAPACK runs on the block
    itself, which its eigenvectors overwrite (:func:`eigh_in_place`): no
    copy of it is made, and the kept array comes before the temporaries of
    its build and LAPACK's workspace in the heap: kept after them, it
    raised the peak RSS of ``of`` at n = 12 by 7 MB (glibc malloc)."""
    n = hamiltonian.n_sites
    if not mirror:
        x = hamiltonian.sector_block(sign)
        w = eigh_in_place(x)
        return ParitySector(sign, (EigenBlock(w, x, _identity_map(w.size)),))
    pairs = reflection_basis(n, sign).pairs.size
    blocks = []
    for t in (1, -1):
        y = hamiltonian.half_block(sign, t)
        w = eigh_in_place(y)
        y[:pairs] *= math.sqrt(0.5)
        if w.size:  # at n = 2 a half can be empty
            blocks.append(EigenBlock(w, y, _half_map(n, sign, t)))
    return ParitySector(sign, tuple(blocks))


def _flip_terms(block: EigenBlock, other: EigenBlock, perm: np.ndarray, sign: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """E† X E′ z for X c = sign·c[perm], E and E′ the bases of ``block``
    and ``other`` and z ``other``'s eigenvectors, as terms (index, c) whose
    c[r]·z[index[r]] sum to row r: term j reads X's image of state
    states[j, r] in ``other``.  A term that reads the first's rows wherever
    its c is nonzero is added to it (at a site where X commutes with the
    reflection, both states of a pair read one row), and all-zero terms are
    dropped, so blocks that X does not connect give none.  The coefficients
    are products of ±1 and 0, so exact."""
    terms: list[tuple[np.ndarray, np.ndarray]] = []
    for states, weights in zip(block.basis.states, block.basis.weights):
        image = perm[states]
        c = sign * weights * other.basis.coef[image]
        index = other.basis.row[image]
        hit = c != 0
        if terms and np.array_equal(index[hit], terms[0][0][hit]):
            terms[0][1][...] += c
        elif hit.any():
            terms.append((index, c))
    return [(index, c) for index, c in terms if c.any()]


def _own_flips(sector: ParitySector, perm: np.ndarray, sign: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """X (X c = sign·c[perm]) on each of a sector's several blocks as one
    term of :func:`_flip_terms`, if it maps each block onto itself."""
    own: list[tuple[np.ndarray, np.ndarray]] = []
    if len(sector.blocks) == 1:
        return own
    for block in sector.blocks:
        for other in sector.blocks:
            terms = _flip_terms(block, other, perm, sign)
            if len(terms) != (other is block):
                return []
            own += terms
    return own


def _flipped(sector: ParitySector, perm: np.ndarray, sign: int) -> np.ndarray:
    """x† X x for X c = sign·c[perm], one product per pair of the sector's
    blocks: with z_b block b's eigenvectors in its basis E_b, the pair
    (b, b′) gives z_b† (E_b† X E_b′ z_b′) (:func:`_flip_terms`) in place, a
    slice of columns at a time.  A pair with no terms, such as the two
    reflection halves at the mirror-fixed site, stays zero.  A sector's
    four half-sized products take half the flops of x† X x."""
    out = np.zeros((sector.dim,) * 2, dtype=sector.dtype)
    for block, rows in sector.spans():
        zh = block.vectors.conj().T
        for other, cols in sector.spans():
            terms = _flip_terms(block, other, perm, sign)
            if not terms:
                continue
            for part in row_chunks(other.dim, block.dim, 2**25):
                (index, c), *rest = terms
                flipped = other.vectors[index, part]
                flipped *= c[:, None]
                for index, c in rest:
                    term = other.vectors[index, part]
                    term *= c[:, None]
                    flipped += term
                    del term
                np.matmul(zh, flipped, out=out[rows, cols][:, part])
                del flipped
    return out


def _scaled_rows(block: EigenBlock, scale: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function of an index array that gives those rows of W = V√p in
    ``block``'s orthonormal basis: the rows of its eigenvectors times the
    columns' ``scale``, then times the norm of each row's basis vector, in
    that order, so each entry has the bits of (V·√p)·norm."""
    norms = np.sqrt(np.sum(block.basis.weights**2, axis=0))

    def read(index: np.ndarray) -> np.ndarray:
        rows = block.vectors[index] * scale
        rows *= norms[index, None]
        return rows

    return read


def _projected_blocks(
    rows_of: Callable[[np.ndarray], np.ndarray], perm: np.ndarray, eps: np.ndarray, width: int, dtype: np.dtype
) -> Iterator[tuple[int, float, np.ndarray]]:
    """(outcome index, ‖Y‖², Y Y†) for the outcomes a = −1, +1 of a signed
    permutation X c = eps·c[perm], with ``rows_of(index)`` the rows of
    W = V√p: Y has the rows (W[i] + a·eps_i·W[perm(i)])/√2 over the pairs
    i < perm(i), and W[i] over the fixed states with eps_i = a."""
    index = np.arange(perm.size)
    lo = np.flatnonzero(perm > index)
    fixed = np.flatnonzero(perm == index)
    for outcome, a in enumerate((-1, 1)):
        kept = fixed[eps[fixed] == a]
        y = np.empty((lo.size + kept.size, width), dtype=dtype)
        for rows in row_chunks(lo.size, width):
            # The rows of W, in the arithmetic of the whole-block form.
            y[rows] = (rows_of(lo[rows]) + (a * eps[lo[rows]])[:, None] * rows_of(perm[lo[rows]])) * math.sqrt(0.5)
        for rows in row_chunks(kept.size, width):
            y[lo.size + rows.start:lo.size + rows.stop] = rows_of(kept[rows])
        weight = float(np.real(np.vdot(y, y)))
        gram = y @ y.conj().T
        del y
        yield outcome, weight, gram


# ---------------------------------------------------------------------------
# Spectral lines
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

        After sorting, neighbours no more than ``atol`` apart fall into one
        group (chains included); a group carries its total weight at the
        weight-averaged frequency, or at the plain mean of its frequencies
        when its weight is below 1e-300.  The group sums are formed in place
        and each sorted copy is dropped once read: beside the inputs, at most
        five arrays of their length are held at once.
        """
        order = np.argsort(frequencies)
        freq = np.asarray(frequencies, dtype=float)[order]
        weight = np.asarray(weights, dtype=float)[order]
        del order
        if freq.size == 0:
            return cls(freq, weight)
        starts = np.flatnonzero(np.r_[True, np.diff(freq) > atol])
        means = np.add.reduceat(freq, starts)
        means[:-1] /= np.diff(starts)
        means[-1] /= freq.size - starts[-1]
        total = np.add.reduceat(weight, starts)
        weight *= freq
        del freq
        moment = np.add.reduceat(weight, starts)
        del weight, starts
        heavy = total > 1e-300
        moment /= np.where(heavy, total, 1.0)
        np.copyto(means, moment, where=heavy)
        return cls(means, total)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def sample(self, times: np.ndarray) -> np.ndarray:
        """C(t) on a time grid."""
        t = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(t, self.frequencies))
        return phases @ self.weights.astype(complex)


# The names of __all__ that live in depthbound.oracles, and _richardson, load on first use.
__getattr__ = _resolver(globals(), dict.fromkeys([*set(__all__).difference(globals()), "_richardson"], "oracles"))
