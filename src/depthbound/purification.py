"""Purifications, measurement channels, Holevo information, and the
mutual-information criterion evaluated through two independent routes.

The central object is a purified state |Psi> on system ⊗ environment.  A
channel applied to a region A of the system (a POVM with classical outcome
register, an isometric embedding, or a partial discard) defines the
criterion value I(A':B) − I(A':E); when it is positive, correlations between
A and B are invisible to the environment and a circuit-depth bound follows
(see :mod:`depthbound.bounds`).

Two routes are implemented and cross-checked to 1e-9:

* route_a — mutual informations (Holevo quantities for measurements)
  evaluated on the purified state;
* route_b — the equivalent four-entropy combination
  S(B) + S(A''BC) − S(ABC) − S(A'B) involving system marginals and the
  channel's dilation, with the classical block structure evaluated exactly.

For projective measurements ``projective_chi_B`` and ``projective_chi_E``
evaluate both Holevo quantities from the state on the system alone, with no
purification; they equal ``holevo_information`` on the measured
purification.  ``projective_chi_E_factors`` evaluates chi_E from factors of
the conditioned states, so that a Gibbs state need not be formed.

All quantities in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import (
    EIG_FLOOR,
    HERM_ATOL,
    NEG_EIG_TOL,
    DensityOperator,
    NumericalConsistencyError,
    StateVector,
    apply_on_sites,
    entropy_from_spectrum,
    mutual_information,
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


@dataclass(frozen=True)
class PurifiedState:
    """A pure state on system ⊗ environment with labeled registers."""

    vector: StateVector
    system_sites: tuple[int, ...]
    env_sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(self.vector.sites) != tuple(self.system_sites) + tuple(self.env_sites):
            raise ValueError("vector register must be system followed by environment")

    def reduced_system(self) -> DensityOperator:
        return self.vector.reduced(self.system_sites)


def _fresh_labels(used: Iterable[int], count: int) -> tuple[int, ...]:
    start = max(used, default=-1) + 1
    return tuple(range(start, start + count))


def canonical_purification(rho: DensityOperator) -> PurifiedState:
    """Purify via the eigendecomposition, |Psi> = sum_k sqrt(w_k) |k>|k>_E.

    The environment register has ceil(log2(rank)) qubits (at least one),
    padded to a power of two; a pure input gets a single environment qubit
    in |0>.
    """
    w, v = np.linalg.eigh(rho.matrix)
    if float(w.min()) < -NEG_EIG_TOL:
        raise ValueError(f"density operator has eigenvalue {w.min()} below -{NEG_EIG_TOL}")
    keep = np.flatnonzero(w > EIG_FLOOR)
    if keep.size == 0:
        raise ValueError("density operator has no weight above the eigenvalue floor")
    w_kept = w[keep]
    rank = int(keep.size)
    n_env = max(1, math.ceil(math.log2(rank)))
    d_env = 2**n_env
    d_sys = rho.matrix.shape[0]
    amps = np.zeros((d_sys, d_env), dtype=np.complex128)
    amps[:, :rank] = v[:, keep] * np.sqrt(w_kept)
    amps /= math.sqrt(float(w_kept.sum()))
    env = _fresh_labels(rho.sites, n_env)
    vec = StateVector(amps.reshape(-1), tuple(rho.sites) + env)
    return PurifiedState(vec, tuple(rho.sites), env)


def ensemble_purification(ensemble: Sequence[tuple[float, StateVector]]) -> PurifiedState:
    """Purify a pure-state ensemble, |Psi> = sum_z sqrt(p_z) |psi_z>|z>_E.

    The environment has ceil(log2(len(ensemble))) qubits (at least one).
    The purified marginal is the ensemble mixture sum_z p_z |psi_z><psi_z|.
    """
    if not ensemble:
        raise ValueError("empty ensemble")
    probs = np.array([p for p, _ in ensemble], dtype=float)
    if float(probs.min()) < 0:
        raise ValueError("negative ensemble probability")
    if abs(float(probs.sum()) - 1.0) > 1e-10:
        raise ValueError(f"ensemble probabilities sum to {probs.sum()}, not 1")
    sites = ensemble[0][1].sites
    for _, member in ensemble:
        if member.sites != sites:
            raise ValueError("ensemble members must share one register")
    m = len(ensemble)
    n_env = max(1, math.ceil(math.log2(m)))
    d_env = 2**n_env
    amps = np.zeros((2 ** len(sites), d_env), dtype=np.complex128)
    for z, (p, member) in enumerate(ensemble):
        amps[:, z] = math.sqrt(p) * member.amplitudes
    env = _fresh_labels(sites, n_env)
    vec = StateVector(amps.reshape(-1), tuple(sites) + env, normalize=True)
    return PurifiedState(vec, tuple(sites), env)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if float(w.min()) < -NEG_EIG_TOL:
        raise ValueError(f"operator has eigenvalue {w.min()} below -{NEG_EIG_TOL}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


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


@dataclass(frozen=True)
class MeasuredEnsemble:
    """Post-measurement ensemble of conditioned states on the full register.

    Conditioned states of a pure input are kept as state vectors; density
    operators appear only after further (mixing) channels are applied to
    members.
    """

    probabilities: tuple[float, ...]
    states: tuple[StateVector | DensityOperator, ...]
    labels: tuple[str, ...]
    sites: tuple[int, ...]
    measured_sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.probabilities) == len(self.states) == len(self.labels)):
            raise ValueError("ensemble fields must have equal lengths")
        total = float(sum(self.probabilities))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"ensemble probabilities sum to {total}")

    def mixture(self) -> DensityOperator:
        """Dense mixture of members (small registers only)."""
        mats = []
        for state in self.states:
            if isinstance(state, StateVector):
                mats.append(np.outer(state.amplitudes, state.amplitudes.conj()))
            else:
                mats.append(state.matrix)
        mat = sum(p * m for p, m in zip(self.probabilities, mats))
        return DensityOperator(mat, self.sites)


def apply_measurement(psi: PurifiedState | StateVector, m: MeasurementSpec) -> MeasuredEnsemble:
    """Condition a pure state on the outcomes of a POVM on a site subset.

    Outcome a occurs with p_a = <psi|F_a|psi>; the conditioned state is
    sqrt(F_a)|psi>/sqrt(p_a).  Outcomes with probability below
    ``OUTCOME_PRUNE_TOL`` are dropped and the rest renormalized.
    """
    vec = psi.vector if isinstance(psi, PurifiedState) else psi
    probs: list[float] = []
    states: list[StateVector] = []
    labels: list[str] = []
    for f, label in zip(m.operators, m.labels):
        root = _psd_sqrt(f)
        branch = apply_on_sites(vec.amplitudes, vec.sites, root, m.sites)
        p = float(np.real(np.vdot(branch, branch)))
        if p < OUTCOME_PRUNE_TOL:
            continue
        probs.append(p)
        states.append(StateVector(branch / math.sqrt(p), vec.sites))
        labels.append(label)
    if not probs:
        raise ValueError("all outcomes pruned; invalid measurement/state pair")
    total = sum(probs)
    probs = [p / total for p in probs]
    return MeasuredEnsemble(tuple(probs), tuple(states), tuple(labels), vec.sites, m.sites)


def holevo_information(ensemble: MeasuredEnsemble, region: Iterable[int]) -> float:
    """chi = S(sum_a p_a rho^X_a) - sum_a p_a S(rho^X_a), in nats."""
    region = tuple(region)
    return _holevo(ensemble.probabilities, [state.reduced(region) for state in ensemble.states])


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
    renormalized as in :func:`apply_measurement`.
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
    so no purification is needed.  Equals :func:`holevo_information` on the
    measured purification.
    """
    region = tuple(region)
    if set(region) & set(m.sites):
        raise ValueError("region must avoid the measured sites")
    probs, states = _projective_branches(rho, m, region)
    reduced = [DensityOperator(np.einsum("kikj->ij", s), region, check=False) for s in states]
    return non_negative(_holevo(probs, reduced), "projective chi_B")


def projective_chi_E(
    rho: DensityOperator, m: MeasurementSpec, *, entropy: float | None = None
) -> float:
    """Holevo information of a projective measurement about the purifying
    environment, chi_E = S(rho) − Σ_a p_a S(Π_a rho Π_a / p_a).

    A conditioned global state is pure, so its environment marginal has the
    spectrum of Π_a rho Π_a / p_a; the environment's average state is
    untouched by the measurement.  ``entropy`` is S(rho) when already known
    (for a Gibbs state, from its weights).  Equals
    :func:`holevo_information` on the environment of the canonical
    purification.
    """
    rest = tuple(s for s in rho.sites if s not in set(m.sites))
    probs, states = _projective_branches(rho, m, rest)
    s_rho = von_neumann_entropy(rho) if entropy is None else entropy
    conditioned = 0.0
    for p, state in zip(probs, states):
        d = state.shape[0] * state.shape[1]
        conditioned += p * entropy_from_spectrum(np.linalg.eigvalsh(state.reshape(d, d)))
    return s_rho - conditioned


def projective_chi_E_factors(factors: Iterable[tuple[int, float, np.ndarray]], entropy: float) -> float:
    """:func:`projective_chi_E` from the Gram matrices of factors of the
    conditioned states.

    ``factors`` yields (a, p, G) per block: the outcome index a, and for a
    matrix Y the weight p = ‖Y‖² and the Gram matrix G = Y Y†.  The blocks
    of one outcome together carry the nonzero spectrum of Π_a rho Π_a (for a
    Gibbs state, :meth:`ThermalEigensystem.projected_factors` yields them),
    and ``entropy`` is S(rho).  Each G is reduced to its spectrum as it
    arrives.  The outcome probabilities p_a = Σ ‖Y‖² must sum to 1 within
    1e-12; outcomes are then pruned and renormalized as in
    :func:`apply_measurement`.
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


@dataclass(frozen=True)
class PrivateInformation:
    """K = chi_B - chi_E together with its two Holevo components (nats)."""

    value: float
    chi_b: float
    chi_e: float


def private_information(
    psi: PurifiedState, m: MeasurementSpec, region_b: Iterable[int]
) -> PrivateInformation:
    ens = apply_measurement(psi, m)
    chi_b = holevo_information(ens, tuple(region_b))
    chi_e = holevo_information(ens, psi.env_sites)
    return PrivateInformation(chi_b - chi_e, chi_b, chi_e)


# ---------------------------------------------------------------------------
# Non-measurement channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryChannel:
    """Isometric embedding V of a site subset into a fresh output register."""

    matrix: np.ndarray
    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        v = np.asarray(self.matrix, dtype=np.complex128)
        d_in = 2 ** len(sites)
        if v.ndim != 2 or v.shape[1] != d_in:
            raise ValueError(f"isometry must have {d_in} columns")
        d_out = v.shape[0]
        if d_out < d_in or d_out & (d_out - 1):
            raise ValueError("isometry output dimension must be a power of two >= input")
        err = float(np.max(np.abs(v.conj().T @ v - np.eye(d_in))))
        if err > HERM_ATOL:
            raise ValueError(f"V†V deviates from identity by {err}")
        v.flags.writeable = False
        object.__setattr__(self, "matrix", v)

    @property
    def n_out_qubits(self) -> int:
        return int(round(math.log2(self.matrix.shape[0])))

    def apply(self, vec: StateVector, out_sites: Sequence[int]) -> StateVector:
        """Apply V to the subset; output register is out_sites + untouched rest."""
        out_sites = tuple(out_sites)
        if len(out_sites) != self.n_out_qubits:
            raise ValueError("output label count must match the isometry output size")
        n = vec.n_sites
        pos = [vec.sites.index(s) for s in self.sites]
        pos_set = set(pos)
        rest = [i for i in range(n) if i not in pos_set]
        t = vec.tensor().transpose(pos + rest).reshape(2 ** len(pos), -1)
        t = self.matrix @ t
        rest_sites = tuple(vec.sites[i] for i in rest)
        return StateVector(t.reshape(-1), out_sites + rest_sites)


@dataclass(frozen=True)
class TraceOutChannel:
    """Discard a subset of region A, keeping the remaining A sites."""

    sites: tuple[int, ...]
    traced: tuple[int, ...]

    def __post_init__(self) -> None:
        sites = tuple(int(s) for s in self.sites)
        traced = tuple(int(s) for s in self.traced)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "traced", traced)
        if not traced:
            raise ValueError("trace-out channel must discard at least one site")
        if not set(traced) <= set(sites):
            raise ValueError("traced sites must lie inside the channel's region")

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(s for s in self.sites if s not in set(self.traced))


@dataclass(frozen=True)
class CriterionResult:
    """Criterion value through both routes (nats); lhs is the route_a value."""

    lhs: float
    route_a: float
    route_b: float


def theorem_criterion(
    rho: DensityOperator,
    channel: MeasurementSpec | IsometryChannel | TraceOutChannel,
    region_b: Iterable[int],
) -> CriterionResult:
    """Evaluate I(A':B) − I(A':E) for a channel on region A, twice.

    route_a uses mutual informations on the canonical purification; route_b
    uses the equivalent system-entropy combination
    S(B) + S(A''BC) − S(ABC) − S(A'B) via the channel's dilation.  The two
    must agree to ``ROUTE_TOL`` or a :class:`NumericalConsistencyError` is
    raised.
    """
    b = tuple(region_b)
    a = tuple(channel.sites)
    sites = tuple(rho.sites)
    if not set(a) <= set(sites):
        raise ValueError("channel region A must lie inside the state's register")
    if not set(b) <= set(sites) or set(b) & set(a):
        raise ValueError("region B must lie inside the register and avoid A")
    c = tuple(s for s in sites if s not in set(a) | set(b))

    psi = canonical_purification(rho)
    env = psi.env_sites
    s_b = von_neumann_entropy(rho.reduced(b))
    s_abc = von_neumann_entropy(rho)

    if isinstance(channel, MeasurementSpec):
        ens = apply_measurement(psi, channel)
        chi_b = holevo_information(ens, b)
        chi_e = holevo_information(ens, env)
        route_a = chi_b - chi_e
        # S(A'B) = H(p) + sum_a p S(rho^B_a) and S(A''BC) = H(p) +
        # sum_a p S(sigma_a^{ABC}); the H(p) terms cancel in the combination.
        acc = 0.0
        for p, member in zip(ens.probabilities, ens.states):
            acc += p * (
                von_neumann_entropy(member.reduced(sites))
                - von_neumann_entropy(member.reduced(b))
            )
        route_b = s_b - s_abc + acc
    elif isinstance(channel, IsometryChannel):
        out_sites = _fresh_labels(sites + env, channel.n_out_qubits)
        phi = channel.apply(psi.vector, out_sites)
        route_a = mutual_information(phi, out_sites, b) - mutual_information(
            phi, out_sites, env
        )
        s_bc = von_neumann_entropy(rho.reduced(b + c))
        s_aprime_b = von_neumann_entropy(phi.reduced(out_sites + b))
        route_b = s_b + s_bc - s_abc - s_aprime_b
    elif isinstance(channel, TraceOutChannel):
        kept = channel.kept
        if kept:
            route_a = mutual_information(psi.vector, kept, b) - mutual_information(
                psi.vector, kept, env
            )
            s_ab = von_neumann_entropy(rho.reduced(kept + b))
        else:
            route_a = 0.0
            s_ab = s_b
        s_att = von_neumann_entropy(rho.reduced(channel.traced + b + c))
        route_b = s_b + s_att - s_abc - s_ab
    else:
        raise TypeError(f"unsupported channel type {type(channel).__name__}")

    if abs(route_a - route_b) > ROUTE_TOL:
        raise NumericalConsistencyError(
            f"criterion routes disagree: {route_a} vs {route_b}"
        )
    return CriterionResult(lhs=route_a, route_a=route_a, route_b=route_b)


def measurement_dilation(
    psi: PurifiedState | StateVector, m: MeasurementSpec
) -> tuple[StateVector, tuple[int, ...], tuple[int, ...]]:
    """Explicit dilated pure state W|psi> for a measurement channel.

    W|psi> = sum_a |a>_{A'} |a>_{A''c} ⊗ sqrt(F_a)|psi>, with the outcome
    register A' and its copy A''c padded to whole qubits.  Returns the dilated
    vector together with the A' and A''-copy registers.  Intended for
    verifying the entropy route at small sizes; memory grows with the padded
    outcome count squared.
    """
    vec = psi.vector if isinstance(psi, PurifiedState) else psi
    n_out = m.n_outcomes
    n_q = max(1, math.ceil(math.log2(n_out)))
    d_pad = 2**n_q
    branches = []
    for f in m.operators:
        root = _psd_sqrt(f)
        branches.append(apply_on_sites(vec.amplitudes, vec.sites, root, m.sites))
    amps = np.zeros((d_pad, d_pad, vec.amplitudes.size), dtype=np.complex128)
    for a, branch in enumerate(branches):
        amps[a, a, :] = branch
    aprime = _fresh_labels(vec.sites, n_q)
    acopy = _fresh_labels(vec.sites + aprime, n_q)
    dilated = StateVector(amps.reshape(-1), aprime + acopy + tuple(vec.sites))
    return dilated, aprime, acopy
