"""The oracle routes: dense state vectors, purifications and their channels,
the general susceptibility formula, and the finite-difference Holevo oracle.

Every quantity here has a cheaper route on the run path, and these routes
cross-check it: ``depthbound selftest`` (:mod:`depthbound.checks`), the
tests and library callers use them; ``cli``, ``backends`` and the modules
they import never do, so a command-line run never loads this module.

Each name also resolves from the module it came from (``states``,
``purification``, ``perturbative`` or ``models``) and from the package: the
first access imports this module and binds the name there (PEP 562).
Conventions and tolerances are those modules'; entropies and Holevo
quantities are in nats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import SpectralLines, SpinHamiltonian, ThermalEigensystem
from .perturbative import (Chi2Result, _check_observable_norm, _check_support, _chi2_E, _chi2_from_xi, _dd1_vals,
                           _floored_eigh, _hermitian_xi, _sigma_frame, chi2_E_eigenbasis, correlator_lb_value,
                           f_beta_weight)
from .purification import OUTCOME_PRUNE_TOL, ROUTE_TOL, MeasurementSpec, _holevo, _projective_branches
from .states import (DENSE_QUBIT_CAP, EIG_FLOOR, HERM_ATOL, NEG_EIG_TOL, NORM_ATOL, VECTOR_QUBIT_CAP, DensityOperator,
                     NumericalConsistencyError, _as_register, _positions, entropy_from_spectrum, operator_norm,
                     von_neumann_entropy)

__all__ = [
    # from states
    "QubitGraph", "StateVector", "apply_on_sites", "embed_operator", "graph_distance", "mutual_information",
    "partial_trace", "trace_distance",
    # from purification
    "CriterionResult", "IsometryChannel", "MeasuredEnsemble", "PrivateInformation", "PurifiedState",
    "TraceOutChannel", "apply_measurement", "canonical_purification", "ensemble_purification", "holevo_information",
    "measurement_dilation", "private_information", "projective_chi_E", "theorem_criterion",
    # from perturbative
    "XiOperator", "build_xi", "chi2_B_correlator_lb", "chi2_E_eigensum", "chi2_E_spectral", "chi2_general",
    "lieb_R_map", "lieb_T_map",
    # from models
    "OracleEstimate", "dynamical_correlation", "gibbs_state", "holevo_finite_difference",
]


# ---------------------------------------------------------------------------
# Graph geometry and dense states
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


def partial_trace(state: StateVector | DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced density operator on ``keep`` (result register in ``keep`` order)."""
    return state.reduced(keep)


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


# ---------------------------------------------------------------------------
# Purifications, measured ensembles and channels
# ---------------------------------------------------------------------------


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


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if float(w.min()) < -NEG_EIG_TOL:
        raise ValueError(f"operator has eigenvalue {w.min()} below -{NEG_EIG_TOL}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


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


# ---------------------------------------------------------------------------
# Response operator, Lieb maps and the general chi2 routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiOperator:
    """Response operator xi^X = Tr_{X^c}[O |psi><psi|] on region X."""

    matrix: np.ndarray
    region: tuple[int, ...]
    provenance: str

    def trace_norm(self) -> float:
        return float(np.abs(np.linalg.eigvalsh(self.matrix)).sum())


def _neg_log_dd2(w: np.ndarray) -> np.ndarray:
    """Kernel K3[i,j,l] = −ln[w_i, w_j, w_l] (negated 2nd divided difference).

    Equals ∫ dz ((w_i+z)(w_j+z)(w_l+z))⁻¹ > 0.  The generic branch divides
    by the widest gap (w_l − w_i); nearly-confluent pairs fall back to the
    midpoint formula, and the fully-confluent limit is 1/(2m²).
    """
    x = np.asarray(w, dtype=float)
    dd1 = _dd1_vals(x[:, None], x[None, :])
    num = dd1[:, :, None] - dd1[None, :, :]
    denom = x[None, None, :] - x[:, None, None]
    scale = x[:, None, None] + x[None, :, None] + x[None, None, :]
    near = np.abs(denom) <= 1e-5 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        k3 = num / denom
    if near.any():
        a = 0.5 * (x[:, None, None] + x[None, None, :]) + 0.0 * x[None, :, None]
        b = np.broadcast_to(x[None, :, None], a.shape)
        dab = _dd1_vals(a, b)
        gap = b - a
        inner = np.abs(gap) <= 1e-5 * (a + b)
        m = (2.0 * a + b) / 3.0
        with np.errstate(divide="ignore", invalid="ignore"):
            conf = np.where(inner, 1.0 / (2.0 * m * m), (1.0 / a - dab) / np.where(inner, 1.0, gap))
        k3 = np.where(near, conf, k3)
    return k3


def lieb_T_map(sigma: DensityOperator | np.ndarray, xi: np.ndarray) -> np.ndarray:
    """T_sigma[xi] = ∫₀^∞ (sigma+z)⁻¹ xi (sigma+z)⁻¹ dz via the eigenbasis kernel."""
    w, u, tiny = _sigma_frame(sigma)
    xi_t = u.conj().T @ xi @ u
    _check_support(xi_t, tiny, tiny)
    out_t = xi_t * _dd1_vals(w[:, None], w[None, :])
    out = u @ out_t @ u.conj().T
    return 0.5 * (out + out.conj().T)


def lieb_R_map(rho: DensityOperator | np.ndarray, x: np.ndarray) -> np.ndarray:
    """R_rho[x] = ∫₀^∞ (rho+z)⁻¹ x (rho+z)⁻¹ x (rho+z)⁻¹ dz (PSD for Hermitian x)."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    w, u = _floored_eigh(mat)
    x_t = u.conj().T @ x @ u
    k3 = _neg_log_dd2(w)
    out_t = np.einsum("ij,jl,ijl->il", x_t, x_t, k3, optimize=True)
    out = u @ out_t @ u.conj().T
    return 0.5 * (out + out.conj().T)


def build_xi(
    psi: PurifiedState | StateVector,
    observable: np.ndarray,
    obs_sites: Sequence[int],
    region: Sequence[int],
) -> XiOperator:
    """xi^X = Tr_{X^c}[O |psi><psi|] for a region X disjoint from supp(O)."""
    vec = psi.vector if isinstance(psi, PurifiedState) else psi
    region = tuple(region)
    if set(region) & set(obs_sites):
        raise ValueError("region must be disjoint from the observable support")
    applied = apply_on_sites(vec.amplitudes, vec.sites, observable, obs_sites)
    n = vec.n_sites
    pos = [vec.sites.index(s) for s in region]
    pos_set = set(pos)
    rest = [i for i in range(n) if i not in pos_set]
    dx = 2 ** len(region)
    lhs = applied.reshape((2,) * n).transpose(pos + rest).reshape(dx, -1)
    rhs = vec.tensor().transpose(pos + rest).reshape(dx, -1)
    xi = _hermitian_xi(lhs @ rhs.conj().T)
    return XiOperator(xi, region, provenance=f"O on sites {tuple(obs_sites)}")


def chi2_general(
    psi: PurifiedState | StateVector,
    observable: np.ndarray,
    obs_sites: Sequence[int],
    region: Sequence[int],
) -> Chi2Result:
    """chi2_X = (1/2)(Tr[xi^X T_{rho^X}[xi^X]] − <O>²) for any region X."""
    _check_observable_norm(observable)
    vec = psi.vector if isinstance(psi, PurifiedState) else psi
    xi = build_xi(vec, observable, obs_sites, region)
    applied = apply_on_sites(vec.amplitudes, vec.sites, np.asarray(observable), tuple(obs_sites))
    mean = float(np.real(np.vdot(vec.amplitudes, applied)))
    value = _chi2_from_xi(xi.matrix, vec.reduced(tuple(region)), mean)
    return Chi2Result(value, tuple(region), "general")


def chi2_E_eigensum(
    hamiltonian: SpinHamiltonian | np.ndarray | ThermalEigensystem,
    beta: float,
    observable: np.ndarray,
) -> Chi2Result:
    """Environment coefficient for a Gibbs state from dense diagonalization.

    chi2_E = (1/2)[ sum_ij p_i |O_ij|² f_beta(E_j−E_i) − (sum_i p_i O_ii)² ]
    with Gibbs weights p_i; the i=j kernel value is f(0)=1.
    """
    eig = ThermalEigensystem.of(hamiltonian)
    obs = np.asarray(observable)
    v = eig.vectors
    if v.shape != obs.shape:
        raise ValueError("H and O must act on the same space")
    return chi2_E_eigenbasis(eig, beta, v.conj().T @ obs @ v)


def chi2_E_spectral(lines, beta: float) -> Chi2Result:
    """chi2_E = (1/2) sum_l w_l f_beta(omega_l) over discrete spectral lines.

    Equivalent to (1/4π)∫ dω C(ω) f_beta(ω) with C(ω) = 2π Σ_l w_l δ(ω−ω_l)
    for C(t) = Σ_l w_l e^{−i ω_l t}.  Accepts any object with
    ``frequencies``/``weights`` arrays or a (frequencies, weights) pair.
    """
    if hasattr(lines, "frequencies"):
        freqs = np.asarray(lines.frequencies, dtype=float)
        weights = np.asarray(lines.weights, dtype=float)
    else:
        freqs, weights = (np.asarray(x, dtype=float) for x in lines)
    if freqs.shape != weights.shape:
        raise ValueError("frequencies and weights must have equal shapes")
    if weights.size and float(weights.min()) < -1e-10:
        raise NumericalConsistencyError(f"negative spectral weight {weights.min()}")
    terms = f_beta_weight(np.atleast_1d(freqs), beta)
    # The clip at 0 changes only entries with the sign bit set (negatives, −0.0).
    if np.signbit(weights).any():
        weights = np.clip(weights, 0.0, None)
    with np.errstate(invalid="ignore"):  # an overflowed f_beta; _chi2_E rejects the nan
        terms *= weights
    return _chi2_E(0.5 * float(np.sum(terms)), "spectral")


def chi2_B_correlator_lb(
    rho: DensityOperator,
    obs_a: np.ndarray,
    sites_a: Sequence[int],
    obs_b: np.ndarray,
    sites_b: Sequence[int],
) -> Chi2Result:
    """Lower bound chi2_B >= <O_A O_B>_c² / (2(1 − <O_B>²)) for ||O_B|| <= 1."""
    sites_a = tuple(sites_a)
    sites_b = tuple(sites_b)
    if set(sites_a) & set(sites_b):
        raise ValueError("observable supports must be disjoint")
    if operator_norm(np.asarray(obs_b)) > 1.0 + 1e-10:
        raise ValueError("O_B must have operator norm <= 1")
    mean_a = rho.expectation(np.asarray(obs_a), sites_a)
    mean_b = rho.expectation(np.asarray(obs_b), sites_b)
    joint_op = np.kron(np.asarray(obs_a), np.asarray(obs_b))
    joint = rho.expectation(joint_op, sites_a + sites_b)
    connected = joint - mean_a * mean_b
    value = correlator_lb_value(connected, mean_b)
    return Chi2Result(value, tuple(sites_b), "correlator-lower-bound")


# ---------------------------------------------------------------------------
# Gibbs states, dynamical correlations and the finite-difference oracle
# ---------------------------------------------------------------------------


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
