"""Measurements and the Holevo informations of projective ones, evaluated on
the system with no purification.

A POVM applied to a region A of the system (:class:`MeasurementSpec`)
defines the criterion value chi_B − chi_E, the Holevo informations of the
outcome about a distant region B and about the purifying environment E;
when it is positive, correlations between A and B are invisible to the
environment and a circuit-depth bound follows (see :mod:`depthbound.bounds`).

For projective measurements ``projective_chi_B`` evaluates chi_B from the
state on the system alone, and ``projective_chi_E_factors`` evaluates chi_E
from factors of the conditioned states, so that neither a purification nor
a Gibbs state need be formed.

The purifications themselves, measured ensembles, ``holevo_information``,
``projective_chi_E``, the isometry and trace-out channels and
``theorem_criterion``, which evaluates the criterion through two
independent routes cross-checked to ``ROUTE_TOL``, are oracle routes in
:mod:`depthbound.oracles`; their names resolve here too.

All quantities in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _resolver
from .states import (
    HERM_ATOL,
    NEG_EIG_TOL,
    DensityOperator,
    NumericalConsistencyError,
    entropy_from_spectrum,
    von_neumann_entropy,
)

__all__ = [
    "OUTCOME_PRUNE_TOL",
    "ROUTE_TOL",
    "PurifiedState",
    "canonical_purification",
    "ensemble_purification",
    "MeasurementSpec",
    "MeasuredEnsemble",
    "apply_measurement",
    "holevo_information",
    "projective_chi_B",
    "projective_chi_E",
    "projective_chi_E_factors",
    "PrivateInformation",
    "private_information",
    "IsometryChannel",
    "TraceOutChannel",
    "CriterionResult",
    "theorem_criterion",
    "measurement_dilation",
]

#: Outcomes with probability below this are dropped from ensembles.
OUTCOME_PRUNE_TOL = 1e-14
#: Maximum allowed disagreement between the two criterion routes.
ROUTE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementSpec:
    """A POVM acting on a subset of system sites, with outcome labels."""

    operators: tuple[np.ndarray, ...]
    sites: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if len(set(sites)) != len(sites):
            raise ValueError("measurement sites must be distinct")
        d = 2 ** len(sites)
        if not self.operators:
            raise ValueError("POVM needs at least one element")
        ops = []
        for f in self.operators:
            f = np.asarray(f, dtype=np.complex128)
            if f.shape != (d, d):
                raise ValueError(f"POVM element shape {f.shape} != ({d},{d})")
            if float(np.max(np.abs(f - f.conj().T))) > HERM_ATOL:
                raise ValueError("POVM element not Hermitian")
            if float(np.linalg.eigvalsh(f).min()) < -NEG_EIG_TOL:
                raise ValueError("POVM element not positive semidefinite")
            f.flags.writeable = False
            ops.append(f)
        total = sum(ops)
        if float(np.max(np.abs(total - np.eye(d)))) > HERM_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "operators", tuple(ops))
        if len(self.labels) != len(ops):
            raise ValueError("one label per POVM element required")
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def n_outcomes(self) -> int:
        return len(self.operators)

    @classmethod
    def projective(
        cls,
        observable: np.ndarray,
        sites: Sequence[int],
        *,
        degeneracy_tol: float = 1e-9,
    ) -> "MeasurementSpec":
        """Projective measurement of a Hermitian observable.

        Eigenvalues closer than ``degeneracy_tol`` are merged into one
        outcome (projector onto the joint eigenspace).
        """
        obs = np.asarray(observable, dtype=np.complex128)
        if float(np.max(np.abs(obs - obs.conj().T))) > HERM_ATOL:
            raise ValueError("observable must be Hermitian")
        w, v = np.linalg.eigh(obs)
        groups: list[list[int]] = [[0]]
        for i in range(1, w.size):
            if w[i] - w[groups[-1][0]] <= degeneracy_tol:
                groups[-1].append(i)
            else:
                groups.append([i])
        ops = []
        labels = []
        for grp in groups:
            cols = v[:, grp]
            ops.append(cols @ cols.conj().T)
            labels.append(f"{float(np.mean(w[grp])):.6g}")
        return cls(tuple(ops), tuple(sites), tuple(labels))

    @classmethod
    def weak(
        cls,
        observable: np.ndarray,
        strength: float,
        sites: Sequence[int],
        *,
        weights: tuple[float, float] = (0.5, 0.5),
    ) -> "MeasurementSpec":
        """Two-outcome weak measurement F_a = q_a I + (-1)^a mu O.

        Requires ||O|| <= 1 and a strength small enough that both elements
        stay positive semidefinite.
        """
        obs = np.asarray(observable, dtype=np.complex128)
        d = obs.shape[0]
        if float(np.max(np.abs(obs - obs.conj().T))) > HERM_ATOL:
            raise ValueError("observable must be Hermitian")
        norm = float(np.linalg.norm(obs, 2))
        if norm > 1.0 + 1e-10:
            raise ValueError(f"weak-measurement observable must have norm <= 1, got {norm}")
        q0, q1 = float(weights[0]), float(weights[1])
        if q0 <= 0 or q1 <= 0 or abs(q0 + q1 - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        mu = float(strength)
        eye = np.eye(d)
        f0 = q0 * eye + mu * obs
        f1 = q1 * eye - mu * obs
        return cls((f0, f1), tuple(sites), ("+", "-"))


def _holevo(probabilities: Sequence[float], reduced: Sequence[DensityOperator]) -> float:
    mean = sum(p * r.matrix for p, r in zip(probabilities, reduced))
    mixed = DensityOperator(mean, reduced[0].sites, check=False)
    avg_entropy = sum(p * von_neumann_entropy(r) for p, r in zip(probabilities, reduced))
    return von_neumann_entropy(mixed) - avg_entropy


# ---------------------------------------------------------------------------
# Projective measurements evaluated on the system
# ---------------------------------------------------------------------------


def _projective_branches(
    rho: DensityOperator, m: MeasurementSpec, keep: tuple[int, ...]
) -> tuple[list[float], list[np.ndarray]]:
    """Outcome probabilities and conditioned states of a projective ``m``.

    Each state is (U_a† ⊗ I) rho_{A,keep} (U_a ⊗ I) / p_a, with U_a an
    isometry onto the range of the projector Π_a, returned as a
    (rank, d_keep, rank, d_keep) array.  Outcomes are pruned and
    renormalized as in :func:`~depthbound.oracles.apply_measurement`.
    """
    da, dk = 2 ** len(m.sites), 2 ** len(keep)
    t = rho.reduced(m.sites + keep).matrix.reshape(da, dk, da, dk)
    branches = []
    for f in m.operators:
        w, v = np.linalg.eigh(f.real if not np.any(f.imag) else f)
        if float(np.max(np.minimum(np.abs(w), np.abs(w - 1.0)))) > HERM_ATOL:
            raise ValueError("the system-side route needs a projective measurement")
        u = v[:, w > 0.5]
        block = np.einsum("ak,aibj,bl->kilj", u.conj(), t, u, optimize=True)
        p = float(np.real(np.einsum("kiki->", block)))
        if p >= OUTCOME_PRUNE_TOL:
            branches.append((p, block / p))
    if not branches:
        raise ValueError("all outcomes pruned; invalid measurement/state pair")
    total = sum(p for p, _ in branches)
    return [p / total for p, _ in branches], [state for _, state in branches]


def projective_chi_B(rho: DensityOperator, m: MeasurementSpec, region: Iterable[int]) -> float:
    """Holevo information of a projective measurement about a system region.

    The B marginals of the conditioned states are Tr_{AC}[Π_a rho Π_a]/p_a,
    so no purification is needed.  Equals
    :func:`~depthbound.oracles.holevo_information` on the measured
    purification.
    """
    region = tuple(region)
    if set(region) & set(m.sites):
        raise ValueError("region must avoid the measured sites")
    probs, states = _projective_branches(rho, m, region)
    reduced = [DensityOperator(np.einsum("kikj->ij", s), region, check=False) for s in states]
    return non_negative(_holevo(probs, reduced), "projective chi_B")


def projective_chi_E_factors(factors: Iterable[tuple[int, float, np.ndarray]], entropy: float) -> float:
    """:func:`~depthbound.oracles.projective_chi_E` from the Gram matrices of
    factors of the conditioned states.

    ``factors`` yields (a, p, G) per block: the outcome index a, and for a
    matrix Y the weight p = ‖Y‖² and the Gram matrix G = Y Y†.  The blocks
    of one outcome together carry the nonzero spectrum of Π_a rho Π_a (for a
    Gibbs state, :meth:`ThermalEigensystem.projected_factors` yields them),
    and ``entropy`` is S(rho).  Each G is reduced to its spectrum as it
    arrives.  The outcome probabilities p_a = Σ ‖Y‖² must sum to 1 within
    1e-12; outcomes are then pruned and renormalized as in
    :func:`~depthbound.oracles.apply_measurement`.
    """
    weights: dict[int, float] = {}
    spectra: dict[int, list[np.ndarray]] = {}
    for a, p, gram in factors:
        weights[a] = weights.get(a, 0.0) + p
        spectra.setdefault(a, []).append(np.linalg.eigvalsh(gram))
    outcomes = sorted(weights)
    probs = [weights[a] for a in outcomes]
    if abs(sum(probs) - 1.0) > 1e-12:
        raise NumericalConsistencyError(f"outcome probabilities sum to 1 + {sum(probs) - 1.0}")
    kept = [(p, spectra[a]) for p, a in zip(probs, outcomes) if p >= OUTCOME_PRUNE_TOL]
    if not kept:
        raise ValueError("all outcomes pruned; invalid measurement/state pair")
    total = sum(p for p, _ in kept)
    conditioned = 0.0
    for p, spectrum in kept:
        conditioned += (p / total) * entropy_from_spectrum(np.concatenate(spectrum) / p)
    return non_negative(entropy - conditioned, "projective chi_E")


def non_negative(chi: float, name: str) -> float:
    """A Holevo quantity, or a second-order Holevo coefficient, which is
    non-negative: a residue in [−ROUTE_TOL, 0] is rounding and gives 0, and
    a value below that raises :class:`NumericalConsistencyError`."""
    if chi <= 0.0:
        if chi < -ROUTE_TOL:
            raise NumericalConsistencyError(f"{name} = {chi} is negative")
        return 0.0
    return chi


# The names of __all__ that live in depthbound.oracles load on first use.
__getattr__ = _resolver(globals(), dict.fromkeys(set(__all__).difference(globals()), "oracles"))

