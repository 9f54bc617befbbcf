"""Dense qubit registers, reduced states, entropies, and graph geometry.

This module is the foundation of the package: ordered site registers, state
vectors and density operators on them, partial traces, von Neumann entropy,
mutual information, trace distance, and nearest-neighbour connectivity graphs
with their hop distance.

Conventions
-----------
* Every entropy and mutual information in this package is measured in
  **nats** (natural logarithm).
* A register is an ordered tuple of distinct integer site labels.  The first
  site in the tuple is the most significant bit of the flat array index
  (equivalently axis 0 of the tensor view), i.e. ``kron(op[site0], op[site1],
  ...)`` ordering.
* Numerical policy: Hermiticity and unit trace are checked to 1e-10, state
  vector norms to 1e-12; density-operator eigenvalues below ``-1e-10`` are an
  error, negative values above that are clipped to zero, and eigenvalues
  below 1e-14 are dropped from entropy sums.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DENSE_QUBIT_CAP",
    "VECTOR_QUBIT_CAP",
    "EIG_FLOOR",
    "NEG_EIG_TOL",
    "HERM_ATOL",
    "TRACE_ATOL",
    "NORM_ATOL",
    "NumericalConsistencyError",
    "QubitGraph",
    "StateVector",
    "DensityOperator",
    "partial_trace",
    "von_neumann_entropy",
    "entropy_from_spectrum",
    "mutual_information",
    "trace_distance",
    "graph_distance",
    "embed_operator",
    "apply_on_sites",
    "operator_norm",
]

# Package-wide numerical policy (see module docstring).
HERM_ATOL = 1e-10
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-12
EIG_FLOOR = 1e-14
NEG_EIG_TOL = 1e-10

#: Hard cap on the number of qubits for dense density operators.
DENSE_QUBIT_CAP = 14
#: Cap for dense state vectors (purifications may double the register size).
VECTOR_QUBIT_CAP = 26


class NumericalConsistencyError(RuntimeError, ValueError):
    """A library tolerance gate failed, such as two routes to one quantity
    disagreeing (exit code 4).  Also a ``ValueError``, so callers that treat
    bad values alike (a scan's per-row errors) need no second clause."""


def _as_register(sites: Iterable[int]) -> tuple[int, ...]:
    reg = tuple(int(s) for s in sites)
    if len(set(reg)) != len(reg):
        raise ValueError(f"register has repeated sites: {reg}")
    return reg


def _positions(register: Sequence[int], subset: Sequence[int]) -> list[int]:
    """Axis positions of ``subset`` sites within ``register``."""
    index = {s: i for i, s in enumerate(register)}
    try:
        return [index[s] for s in subset]
    except KeyError as exc:
        raise ValueError(f"site {exc.args[0]} not in register {register}") from None


# ---------------------------------------------------------------------------
# Graph geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitGraph:
    """Undirected connectivity graph over sites ``0..n_sites-1``.

    Edges are stored as sorted pairs.  Circuit lightcones in the depth bounds
    grow by one hop per layer, so the relevant geometric quantity is the hop
    distance :func:`graph_distance`.
    """

    n_sites: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("graph needs at least one site")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < self.n_sites and 0 <= b < self.n_sites):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"self-loop on site {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    @classmethod
    def path(cls, n: int) -> "QubitGraph":
        """Open chain 0-1-2-...-(n-1)."""
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "QubitGraph":
        """Rectangular grid, site label ``r*cols + c``."""
        edges = []
        for r in range(rows):
            for c in range(cols):
                s = r * cols + c
                if c + 1 < cols:
                    edges.append((s, s + 1))
                if r + 1 < rows:
                    edges.append((s, s + cols))
        return cls(rows * cols, tuple(edges))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_sites)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def graph_distance(graph: QubitGraph, region_x: Iterable[int], region_y: Iterable[int]) -> int | float:
    """Minimum hop distance between two site sets (``math.inf`` if disconnected).

    Overlapping regions are at distance 0.  Empty regions are rejected: a
    distance to nothing is undefined.
    """
    xs = set(int(s) for s in region_x)
    ys = set(int(s) for s in region_y)
    if not xs or not ys:
        raise ValueError("graph_distance requires non-empty regions")
    for s in xs | ys:
        if not 0 <= s < graph.n_sites:
            raise ValueError(f"site {s} outside graph")
    if xs & ys:
        return 0
    adj = graph.adjacency()
    dist = {s: 0 for s in xs}
    queue = deque(xs)
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt in dist:
                continue
            dist[nxt] = dist[cur] + 1
            if nxt in ys:
                return dist[nxt]
            queue.append(nxt)
    return math.inf


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


class StateVector:
    """A pure state on an ordered register of qubits."""

    __slots__ = ("amplitudes", "sites")

    def __init__(self, amplitudes: np.ndarray, sites: Iterable[int], *, normalize: bool = False):
        reg = _as_register(sites)
        if len(reg) > VECTOR_QUBIT_CAP:
            raise ValueError(f"state vector register {len(reg)} exceeds cap {VECTOR_QUBIT_CAP}")
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != 2 ** len(reg):
            raise ValueError(f"amplitude count {amps.size} != 2**{len(reg)}")
        norm = float(np.linalg.norm(amps))
        if normalize:
            if norm < 1e-150:
                raise ValueError("cannot normalize a zero vector")
            amps = amps / norm
        elif abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {NORM_ATOL}")
        self.amplitudes = amps
        self.sites = reg

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_sites)

    def density(self) -> "DensityOperator":
        if self.n_sites > DENSE_QUBIT_CAP:
            raise ValueError("register too large for a dense density operator")
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(m, self.sites)

    def reduced(self, keep: Iterable[int]) -> "DensityOperator":
        keep = _as_register(keep)
        pos = _positions(self.sites, keep)
        if len(keep) > DENSE_QUBIT_CAP:
            raise ValueError("reduced register too large for a dense density operator")
        rest = [i for i in range(self.n_sites) if i not in set(pos)]
        t = self.tensor().transpose(pos + rest).reshape(2 ** len(keep), -1)
        mat = t @ t.conj().T
        return DensityOperator(mat, keep, check=False)

    def expectation(self, op: np.ndarray, op_sites: Iterable[int]) -> float:
        op_sites = _as_register(op_sites)
        applied = apply_on_sites(self.amplitudes, self.sites, op, op_sites)
        return float(np.real(np.vdot(self.amplitudes, applied)))


class DensityOperator:
    """A density operator on an ordered register of qubits.

    Hermiticity and unit trace are validated on construction.  Positivity is
    enforced where spectra are computed (entropy, purification, distance):
    eigenvalues below ``-NEG_EIG_TOL`` raise, small negatives are clipped.
    """

    __slots__ = ("matrix", "sites")

    def __init__(self, matrix: np.ndarray, sites: Iterable[int], *, check: bool = True):
        reg = _as_register(sites)
        if len(reg) > DENSE_QUBIT_CAP:
            raise ValueError(f"density operator register {len(reg)} exceeds cap {DENSE_QUBIT_CAP}")
        mat = np.asarray(matrix)
        d = 2 ** len(reg)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d},{d})")
        if check:
            herm_err = float(np.max(np.abs(mat - mat.conj().T))) if d else 0.0
            if herm_err > HERM_ATOL:
                raise ValueError(f"matrix not Hermitian: deviation {herm_err}")
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > TRACE_ATOL:
                raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        # Store the Hermitian part so later eigh calls are exactly symmetric.
        mat = 0.5 * (mat + mat.conj().T)
        if np.iscomplexobj(mat) and not mat.imag.any():
            mat = mat.real
        self.matrix = mat
        self.sites = reg

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def reduced(self, keep: Iterable[int]) -> "DensityOperator":
        """The marginal on ``keep``, in that order; the operator itself when
        ``keep`` is its whole register in its own order."""
        keep = _as_register(keep)
        if keep == self.sites:
            return self
        pos = _positions(self.sites, keep)
        n = self.n_sites
        keep_set = set(pos)
        rest = [i for i in range(n) if i not in keep_set]
        perm = pos + rest + [n + p for p in pos] + [n + r for r in rest]
        t = self.matrix.reshape((2,) * (2 * n)).transpose(perm)
        dk = 2 ** len(keep)
        dr = 2 ** len(rest)
        t = t.reshape(dk, dr, dk, dr)
        mat = np.einsum("arbr->ab", t)
        return DensityOperator(mat, keep, check=False)

    def expectation(self, op: np.ndarray, op_sites: Iterable[int]) -> float:
        op_sites = _as_register(op_sites)
        red = self.reduced(op_sites) if set(op_sites) != set(self.sites) else self
        if red.sites != op_sites:
            red = red.reordered(op_sites)
        return float(np.real(np.trace(red.matrix @ op)))

    def reordered(self, new_sites: Iterable[int]) -> "DensityOperator":
        new_sites = _as_register(new_sites)
        if set(new_sites) != set(self.sites):
            raise ValueError("reordered() must permute the existing register")
        pos = _positions(self.sites, new_sites)
        n = self.n_sites
        perm = pos + [n + p for p in pos]
        t = self.matrix.reshape((2,) * (2 * n)).transpose(perm)
        d = 2**n
        return DensityOperator(t.reshape(d, d), new_sites, check=False)


def partial_trace(state: StateVector | DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced density operator on ``keep`` (result register in ``keep`` order)."""
    return state.reduced(keep)


def entropy_from_spectrum(eigenvalues: np.ndarray) -> float:
    """Von Neumann entropy in nats from an eigenvalue list.

    Eigenvalues below ``-NEG_EIG_TOL`` raise; negatives above it are clipped;
    values below ``EIG_FLOOR`` are dropped from the sum.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.size and float(w.min()) < -NEG_EIG_TOL:
        raise ValueError(f"spectrum has eigenvalue {w.min()} below -{NEG_EIG_TOL}")
    w = w[w > EIG_FLOOR]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log(w)).sum())


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr[rho ln rho] in nats."""
    return entropy_from_spectrum(np.linalg.eigvalsh(rho.matrix))


def mutual_information(
    state: StateVector | DensityOperator,
    region_x: Iterable[int],
    region_y: Iterable[int],
    conditioning: Iterable[int] | None = None,
) -> float:
    """I(X:Y) (or conditional I(X:Y|R)) of a state's reduced regions, in nats."""
    x = _as_register(region_x)
    y = _as_register(region_y)
    r = _as_register(conditioning) if conditioning is not None else ()
    if set(x) & set(y) or set(x) & set(r) or set(y) & set(r):
        raise ValueError("mutual information regions must be disjoint")

    def ent(region: tuple[int, ...]) -> float:
        return von_neumann_entropy(state.reduced(region))

    if not r:
        return ent(x) + ent(y) - ent(x + y)
    return ent(x + r) + ent(y + r) - ent(x + y + r) - ent(r)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """T(rho, sigma) = (1/2)||rho - sigma||_1."""
    if set(rho.sites) != set(sigma.sites):
        raise ValueError("trace distance requires matching registers")
    if rho.sites != sigma.sites:
        sigma = sigma.reordered(rho.sites)
    diff = rho.matrix - sigma.matrix
    if diff.dtype != np.complex128 and not np.isrealobj(diff):
        diff = diff.astype(np.complex128)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# Operator plumbing
# ---------------------------------------------------------------------------


def apply_on_sites(
    amplitudes: np.ndarray,
    register: Sequence[int],
    op: np.ndarray,
    op_sites: Sequence[int],
) -> np.ndarray:
    """Apply a (possibly rectangular) operator on a subset of a vector's sites.

    For a square ``op`` the register is unchanged.  Rectangular operators are
    not supported here (they change the register); see the purification layer
    for isometries.
    """
    n = len(register)
    pos = _positions(register, op_sites)
    d_in = 2 ** len(pos)
    if op.shape != (d_in, d_in):
        raise ValueError(f"operator shape {op.shape} does not match {len(pos)} sites")
    pos_set = set(pos)
    rest = [i for i in range(n) if i not in pos_set]
    t = amplitudes.reshape((2,) * n).transpose(pos + rest).reshape(d_in, -1)
    t = op @ t
    t = t.reshape((2,) * n)
    inv = np.argsort(pos + rest)
    return np.ascontiguousarray(t.transpose(inv)).reshape(-1)


def embed_operator(op: np.ndarray, op_sites: Sequence[int], register: Sequence[int]) -> np.ndarray:
    """Dense embedding of a local operator into a full register."""
    reg = _as_register(register)
    op_sites = _as_register(op_sites)
    pos = _positions(reg, op_sites)
    n = len(reg)
    d_rest = 2 ** (n - len(pos))
    full = np.kron(op, np.eye(d_rest))
    # ``full`` acts on the register ordered as op_sites + rest; permute back.
    pos_set = set(pos)
    rest = [i for i in range(n) if i not in pos_set]
    order = pos + rest
    inv = list(np.argsort(order))
    t = full.reshape((2,) * (2 * n)).transpose(inv + [n + i for i in inv])
    d = 2**n
    return np.ascontiguousarray(t.reshape(d, d))


def operator_norm(op: np.ndarray) -> float:
    """Spectral norm of a (small, dense) operator."""
    return float(np.linalg.norm(op, 2))
