"""Dense qubit registers, density operators, entropies, and the numerical policy.

This module is the foundation of the package: ordered site registers,
density operators on them with their marginals, von Neumann entropy, and
the tolerances every layer shares.  State vectors, mutual information,
trace distance, operator embedding and qubit graphs are oracle routes that
live in :mod:`depthbound.oracles`; their names resolve here too.

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

from typing import Iterable, Sequence

import numpy as np

from . import _resolver

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
# States
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Operator plumbing
# ---------------------------------------------------------------------------


def operator_norm(op: np.ndarray) -> float:
    """Spectral norm of a (small, dense) operator."""
    return float(np.linalg.norm(op, 2))


# The names of __all__ that live in depthbound.oracles load on first use.
__getattr__ = _resolver(globals(), dict.fromkeys(set(__all__).difference(globals()), "oracles"))
