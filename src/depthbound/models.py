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
from typing import Iterator, Sequence

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

    def _zeros(self, dim: int) -> np.ndarray:
        """A zero matrix of H's type: complex when an odd number of Y letters
        survives in some term."""
        odd_y = any(sum(letter == "Y" for _, letter in ops) % 2 for _, ops in self.terms)
        return np.zeros((dim, dim), dtype=np.complex128 if odd_y else np.float64)

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
        if self.n_sites < 2 or not self.flip_symmetric:
            raise ValueError("the sector blocks need n >= 2 and terms that commute with the global flip")
        d = 2**self.n_sites
        m = d // 2
        cols = np.arange(m)
        out = self._zeros(m)
        flat = out.reshape(-1)
        for flip, entries in self._entries(cols):
            if flip & m:
                flat[(cols ^ flip ^ (d - 1)) * m + cols] += sign * entries
            else:
                flat[(cols ^ flip) * m + cols] += entries
        return _real_if_exact(out)


def _real_if_exact(mat: np.ndarray) -> np.ndarray:
    """A complex matrix with no imaginary part, as a real one."""
    if mat.dtype == np.complex128 and float(np.max(np.abs(mat.imag))) == 0.0:
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
    A :class:`SpinHamiltonian` on n >= 2 sites whose terms each carry an even
    number of Z and Y letters (the TFIM, say) commutes with the global flip
    ∏X: it is diagonalized in its two parity sectors of half the dimension,
    each block built from the terms (:meth:`SpinHamiltonian.sector_block`)
    with no 2ⁿ×2ⁿ matrix, and its eigenvectors stay in those ``sectors`` as
    two m×m blocks (m = d/2).  A sector block that is also symmetric under
    the chain reflection j ↔ n−1−j, as the open TFIM's are, is diagonalized
    in the reflection's two eigenspaces (:func:`_sector_eigh`).  Any other
    model, and a Hamiltonian given as a matrix, is diagonalized in full.
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
            sites = hamiltonian.sites
            # n >= 2: X on site 0 then pairs the basis states of each sector.
            if len(sites) >= 2 and hamiltonian.flip_symmetric:
                # One block at a time: each is freed once its eigenpairs are found.
                sectors = [_sector_eigh(sign, hamiltonian.sector_block(sign), len(sites)) for sign in (1, -1)]
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
        :meth:`ParitySector.flip`.  Past n = 12 each block is formed a slice
        of columns at a time, so that no permuted copy of x is held whole;
        each slice's product streams all of x, so the slices are large."""
        position = self.sites.index(site)
        blocks = []
        for sector in self.sectors:
            perm, sign = sector.flip(position, len(self.sites))
            x = sector.vectors
            xh = x.conj().T
            out = np.empty_like(x)
            for cols in row_chunks(x.shape[1], x.shape[0], 2**25):
                np.matmul(xh, x[perm, cols], out=out[:, cols])
            out *= sign
            blocks.append(out)
        return tuple(blocks)

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
        mat = np.zeros((2 ** len(pos),) * 2, dtype=np.result_type(*(s.vectors for s in self.sectors)))
        for sector, p in zip(self.sectors, self.sector_weights(beta)):
            _add_sector_marginal(mat, sector, p, pos, n)
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"Gibbs marginal trace deviates by {tr - 1.0}")
        return DensityOperator(mat, keep, check=False)

    def projected_factors(self, beta: float, site: int) -> Iterator[tuple[int, float, np.ndarray]]:
        """Factors of Π_a ρ Π_a for the outcomes a = −1, +1 of X_site, one
        (sector, outcome) at a time.

        Π_a = (I + a X_site)/2 commutes with ∏X.  In each sector its range is
        spanned by (e_i + a·sign·e_perm(i))/√2 over the pairs i < perm(i) of
        :meth:`ParitySector.flip`, so with W = V√p the rows
        Y = (W[i] + a·sign·W[perm(i)])/√2 give Π_a ρ Π_a the nonzero
        spectrum of the blocks Y Y† together: one block of dimension d/4 per
        parity sector, or d/2 without sectors.  Yields, sector by sector,
        (outcome index, ‖Y‖², Y Y†) with index 0 for a = −1 and 1 for a = +1
        (:func:`~depthbound.purification.projective_chi_E_factors`).  Y is
        filled in row chunks and freed before its Gram matrix is yielded.
        """
        position = self.sites.index(site)
        for sector, p in zip(self.sectors, self.sector_weights(beta)):
            perm, sign = sector.flip(position, len(self.sites))
            lo = np.flatnonzero(perm > np.arange(perm.size))
            x, sq = sector.vectors, np.sqrt(p)
            for index, a in enumerate((-1, 1)):
                y = np.empty((lo.size, x.shape[1]), dtype=x.dtype)
                for rows in row_chunks(lo.size, x.shape[1]):
                    # The rows of W = x√p, in the arithmetic of the whole-block form.
                    y[rows] = (x[lo[rows]] * sq + (a * sign) * (x[perm[lo[rows]]] * sq)) * math.sqrt(0.5)
                weight = float(np.real(np.vdot(y, y)))
                gram = y @ y.conj().T
                del y
                yield index, weight, gram


#: The size of one chunk of rows in the loops that stream a sector block,
#: so that their temporaries stay small next to the m×m block.
CHUNK_BYTES = 2**18


def row_chunks(count: int, width: int, budget: int = CHUNK_BYTES) -> Iterator[slice]:
    """Slices over ``count`` rows (or columns) of ``width`` float64 entries,
    each at most ``budget`` bytes (and at least one row)."""
    step = max(1, budget // (8 * width))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _add_sector_marginal(mat: np.ndarray, sector: ParitySector, p: np.ndarray, pos: Sequence[int], n: int) -> None:
    """Add one sector's term of :meth:`ThermalEigensystem.marginal` on the
    register positions ``pos``, in that order, to ``mat``."""
    x, sq = sector.vectors, np.sqrt(p)
    if not sector.sign:
        mat += _gram(x, sq, _row_index(pos, n), cross=False)[0]
        return
    # The n − 1 sites after site 0 index the rows of x.
    rows = _row_index([q - 1 for q in pos if q], n - 1)
    gram, cross = _gram(x, sq, rows, cross=0 in pos)
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


def _gram(x: np.ndarray, sq: np.ndarray, rows: np.ndarray, cross: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """M = Σ_t G_t G_t† with G_t = (x√p)[rows[:, t]], and with ``cross``
    also N = Σ_t G_t Ĝ_t†, Ĝ_t the rows complemented (reversed)."""
    k = rows.shape[0]
    gram = np.zeros((k, k), dtype=x.dtype)
    mixed = np.zeros((k, k), dtype=x.dtype) if cross else None
    for t in row_chunks(rows.shape[1], k * x.shape[1]):
        g = (x[rows[:, t]] * sq).reshape(k, -1)
        gram += g @ g.conj().T
        if cross:
            mixed += g @ (x[x.shape[0] - 1 - rows[:, t]] * sq).reshape(k, -1).conj().T
    return gram, mixed


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
    m = block.shape[0]
    if not all(np.array_equal(_mirrored_rows(block, perm, sigma, rows), block[rows]) for rows in row_chunks(m, m)):
        return ParitySector(sign, *np.linalg.eigh(block))
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
    del block  # the only reference left: free it before the scatter
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


def _mirrored_rows(block: np.ndarray, perm: np.ndarray, sigma: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of R B R, for R the signed permutation (perm, sigma)."""
    out = block[np.ix_(perm[rows], perm)]
    out *= sigma[rows, None]
    out *= sigma
    return out


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
        order = np.argsort(frequencies)
        groups = LineGroups.of(np.asarray(frequencies, dtype=float)[order], atol)
        return groups.reduce(np.asarray(weights, dtype=float)[order])

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

    ``frequencies`` are sorted ascending; the groups start at ``starts``,
    and ``means`` holds each group's plain mean frequency (its sum over its
    count).  One grouping serves any number of weight vectors over the same
    lines, listed in the same sorted order, such as one per β.
    """

    frequencies: np.ndarray
    starts: np.ndarray
    means: np.ndarray

    @classmethod
    def of(cls, frequencies: np.ndarray, atol: float) -> "LineGroups":
        """Groups of ``frequencies``, which must already be sorted; the
        array is kept, not copied."""
        freq = np.asarray(frequencies, dtype=float)
        if freq.size == 0:
            return cls(freq, np.zeros(0, dtype=int), freq)
        gaps = np.diff(freq)
        if gaps.size and float(gaps.min()) < 0.0:
            raise ValueError("line frequencies must be sorted")
        starts = np.concatenate([[0], np.flatnonzero(gaps > atol) + 1])
        del gaps
        counts = np.diff(np.concatenate([starts, [freq.size]]))
        return cls(freq, starts, np.add.reduceat(freq, starts) / counts)

    def reduce(self, weights: np.ndarray) -> SpectralLines:
        """Merged lines for ``weights`` listed in the order of ``frequencies``.

        A float64 ``weights`` array is overwritten: once its groups are
        summed, it holds the products frequency × weight.
        """
        weight = np.asarray(weights, dtype=float)
        if weight.size == 0:
            return SpectralLines(self.frequencies, weight)
        merged_w = np.add.reduceat(weight, self.starts)
        merged_f = np.add.reduceat(np.multiply(self.frequencies, weight, out=weight), self.starts)
        # Each heavy group sits at its weighted mean, a light one at its plain mean.
        heavy = merged_w > 1e-300
        np.divide(merged_f, merged_w, out=merged_f, where=heavy)
        np.copyto(merged_f, self.means, where=~heavy)
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
