"""Purifications, measurement channels, and the two-route criterion."""

import math

import numpy as np
import pytest

from depthbound.states import (
    DensityOperator,
    NumericalConsistencyError,
    StateVector,
    mutual_information,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from depthbound.purification import (
    ROUTE_TOL,
    IsometryChannel,
    MeasurementSpec,
    TraceOutChannel,
    apply_measurement,
    canonical_purification,
    ensemble_purification,
    holevo_information,
    measurement_dilation,
    private_information,
    projective_chi_E_factors,
    theorem_criterion,
)

RNG = np.random.default_rng(411)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])
LN2 = math.log(2.0)


def random_density(sites, rank=None, rng=RNG):
    d = 2 ** len(sites)
    rank = rank or d
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real, tuple(sites))


def random_povm(n_outcomes, n_sites, sites, rng=RNG):
    """Random informationally-generic POVM via symmetrized completion."""
    d = 2 ** n_sites
    gs = []
    for _ in range(n_outcomes):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(a @ a.conj().T)
    s = sum(gs)
    w, v = np.linalg.eigh(s)
    s_inv_half = v @ np.diag(w ** -0.5) @ v.conj().T
    ops = tuple(s_inv_half @ g @ s_inv_half for g in gs)
    return MeasurementSpec(ops, tuple(sites), tuple(str(i) for i in range(n_outcomes)))


# ---------------------------------------------------------------------------
# purifications
# ---------------------------------------------------------------------------


def test_canonical_purification_recovers_state():
    rho = random_density((0, 1))
    psi = canonical_purification(rho)
    assert trace_distance(psi.reduced_system(), rho) < 1e-12
    assert len(psi.env_sites) == len(psi.system_sites)
    assert not set(psi.env_sites) & set(psi.system_sites)


def test_canonical_purification_env_entropy_matches_system():
    rho = random_density((0, 1, 2), rank=3)
    psi = canonical_purification(rho)
    s_sys = von_neumann_entropy(rho)
    s_env = von_neumann_entropy(psi.vector.reduced(psi.env_sites))
    assert abs(s_sys - s_env) < 1e-10


def test_ensemble_purification_mixture():
    v0 = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), (0, 1))
    plus = np.full(4, 0.5)
    v1 = StateVector(plus, (0, 1))
    psi = ensemble_purification([(0.25, v0), (0.75, v1)])
    target = 0.25 * np.outer(v0.amplitudes, v0.amplitudes) + 0.75 * np.outer(
        plus, plus
    )
    got = psi.reduced_system()
    assert np.allclose(got.matrix, target, atol=1e-12)


# ---------------------------------------------------------------------------
# measurement specs
# ---------------------------------------------------------------------------


def test_povm_must_sum_to_identity():
    with pytest.raises(ValueError):
        MeasurementSpec((np.eye(2) * 0.5, np.eye(2) * 0.4), (0,), ("a", "b"))


def test_povm_elements_must_be_psd():
    bad = np.diag([1.5, -0.5])
    good = np.eye(2) - bad
    with pytest.raises(ValueError):
        MeasurementSpec((bad, good), (0,), ("a", "b"))


def test_projective_merges_degenerate_levels():
    zz = np.kron(Z, Z)  # eigenvalues ±1, each twofold
    m = MeasurementSpec.projective(zz, (0, 1))
    assert m.n_outcomes == 2
    for f in m.operators:
        assert np.allclose(f @ f, f, atol=1e-12)  # projectors


def test_projective_nondegenerate_counts_levels():
    obs = np.diag([0.0, 1.0, 2.0, 3.0])
    m = MeasurementSpec.projective(obs, (0, 1))
    assert m.n_outcomes == 4


def test_weak_rejects_large_observable():
    with pytest.raises(ValueError):
        MeasurementSpec.weak(2.0 * X, 0.01, (0,))


def test_weak_rejects_strength_breaking_positivity():
    with pytest.raises(ValueError):
        MeasurementSpec.weak(X, 0.7, (0,))  # 0.5 - 0.7 < 0


def test_weak_elements_form():
    mu = 0.05
    m = MeasurementSpec.weak(X, mu, (1,))
    f0, f1 = m.operators
    assert np.allclose(f0, 0.5 * np.eye(2) + mu * X, atol=1e-14)
    assert np.allclose(f0 + f1, np.eye(2), atol=1e-14)


# ---------------------------------------------------------------------------
# measurement action
# ---------------------------------------------------------------------------


def test_born_rule_probabilities():
    rho = random_density((0, 1))
    psi = canonical_purification(rho)
    m = MeasurementSpec.projective(Z, (0,))
    ens = apply_measurement(psi, m)
    assert abs(sum(ens.probabilities) - 1.0) < 1e-12
    for p, f in zip(ens.probabilities, m.operators):
        full = np.kron(f, np.eye(2))
        assert abs(p - np.trace(full @ rho.matrix).real) < 1e-12


def test_nonselective_measurement_preserves_remote_marginal():
    """sum_a sqrt(F_a) rho sqrt(F_a) has the same marginal off the measured sites."""
    rho = random_density((0, 1, 2))
    psi = canonical_purification(rho)
    for m in (MeasurementSpec.projective(X, (0,)), random_povm(3, 1, (0,))):
        ens = apply_measurement(psi, m)
        mixed = ens.mixture()
        before = rho.reduced((1, 2))
        after = partial_trace(mixed, keep=(1, 2))
        assert trace_distance(before, after) < 1e-10


def test_holevo_orthogonal_flags_reach_outcome_entropy():
    """chi on a register that records the outcome equals H(p)."""
    # Z measurement on |+>: outcomes flag the system itself.
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0), (0,))
    m = MeasurementSpec.projective(Z, (0,))
    ens = apply_measurement(plus, m)
    chi = holevo_information(ens, (0,))
    h_p = -sum(p * math.log(p) for p in ens.probabilities)
    assert abs(chi - h_p) < 1e-12
    assert abs(chi - LN2) < 1e-12


def test_holevo_bounded_by_outcome_entropy():
    rho = random_density((0, 1, 2))
    psi = canonical_purification(rho)
    m = random_povm(4, 1, (1,))
    ens = apply_measurement(psi, m)
    h_p = -sum(p * math.log(p) for p in ens.probabilities if p > 0)
    for region in [(0,), (2,), psi.env_sites]:
        chi = holevo_information(ens, region)
        assert -1e-10 <= chi <= h_p + 1e-10


def test_projective_chi_E_factors_is_non_negative():
    """Two equally likely outcomes, each leaving a maximally mixed qubit: the
    conditioned entropy is ln 2.  An S(rho) below it within ROUTE_TOL is a
    rounding residue and gives 0; below that it is an error.  Each outcome
    is one block Y = I/2, given as (outcome, ‖Y‖², Y Y†); each call gets
    Gram matrices of its own, which it reduces in place."""
    y = 0.5 * np.eye(2)

    def factors():
        return [(0, 0.5, y @ y), (1, 0.5, y @ y)]

    assert projective_chi_E_factors(factors(), 2 * LN2) == pytest.approx(LN2, abs=1e-14)
    assert projective_chi_E_factors(factors(), LN2 - 0.5 * ROUTE_TOL) == 0.0
    with pytest.raises(NumericalConsistencyError, match="negative"):
        projective_chi_E_factors(factors(), LN2 - 2 * ROUTE_TOL)


def test_private_information_components():
    rho = random_density((0, 1, 2))
    psi = canonical_purification(rho)
    m = MeasurementSpec.weak(Z, 0.1, (0,))
    priv = private_information(psi, m, (1,))
    assert abs(priv.value - (priv.chi_b - priv.chi_e)) < 1e-14


# ---------------------------------------------------------------------------
# two-route criterion
# ---------------------------------------------------------------------------


def _channels_for_four_sites(rng):
    yield MeasurementSpec.projective(Z, (0,))
    yield MeasurementSpec.weak(X, 0.08, (0,))
    yield random_povm(3, 1, (0,), rng=rng)
    # Haar-ish isometry qubit -> 2 qubits
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(a)
    yield IsometryChannel(q[:, :2], (0,))
    yield TraceOutChannel((0, 1), (1,))
    yield TraceOutChannel((0,), (0,))


@pytest.mark.parametrize("seed", [7, 21, 1999])
def test_criterion_routes_agree(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((0, 1, 2, 3), rank=5, rng=rng)
    for channel in _channels_for_four_sites(rng):
        res = theorem_criterion(rho, channel, (2,))
        assert abs(res.route_a - res.route_b) < 1e-9
        assert res.lhs == res.route_a
        assert math.isfinite(res.lhs)


def test_criterion_ghz_full_trace_out_is_zero():
    amp = np.zeros(8)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    rho = StateVector(amp, (0, 1, 2)).density()
    res = theorem_criterion(rho, TraceOutChannel((0,), (0,)), (1,))
    assert abs(res.lhs) < 1e-12


def test_criterion_maximally_mixed_identity_isometry():
    """For I/8, A' stays maximally entangled with E and uncorrelated with B."""
    rho = DensityOperator(np.eye(8) / 8.0, (0, 1, 2))
    res = theorem_criterion(rho, IsometryChannel(np.eye(2), (0,)), (1,))
    assert abs(res.lhs - (-2.0 * LN2)) < 1e-10


def test_criterion_region_validation():
    rho = random_density((0, 1, 2))
    with pytest.raises(ValueError):
        theorem_criterion(rho, MeasurementSpec.projective(Z, (0,)), (0, 1))
    with pytest.raises(ValueError):
        theorem_criterion(rho, MeasurementSpec.projective(Z, (5,)), (1,))


def test_outcome_merge_cannot_raise_holevo():
    """Coarse-graining outcomes is a channel on the flag register."""
    rng = np.random.default_rng(99)
    for _ in range(10):
        rho = random_density((0, 1, 2), rng=rng)
        psi = canonical_purification(rho)
        m = random_povm(4, 1, (0,), rng=rng)
        merged = MeasurementSpec(
            (m.operators[0] + m.operators[1], m.operators[2], m.operators[3]),
            m.sites,
            ("01", "2", "3"),
        )
        ens_fine = apply_measurement(psi, m)
        ens_coarse = apply_measurement(psi, merged)
        for region in [(1,), psi.env_sites]:
            assert (
                holevo_information(ens_coarse, region)
                <= holevo_information(ens_fine, region) + 1e-10
            )


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def test_dilation_is_normalized_and_flags_outcomes():
    rho = random_density((0, 1))
    psi = canonical_purification(rho)
    m = random_povm(3, 1, (0,), rng=np.random.default_rng(5))
    dilated, aprime, acopy = measurement_dilation(psi, m)
    assert abs(np.linalg.norm(dilated.amplitudes) - 1.0) < 1e-12
    assert len(aprime) == len(acopy) == 2  # 3 outcomes pad to 2 qubits
    # the A' marginal is diagonal with the outcome distribution
    marginal = dilated.reduced(aprime)
    ens = apply_measurement(psi, m)
    diag = np.sort(np.diag(marginal.matrix).real)[::-1]
    probs = np.sort(np.array(ens.probabilities + (0.0,)))[::-1]
    assert np.allclose(np.sort(diag), np.sort(probs), atol=1e-10)
    off = marginal.matrix - np.diag(np.diag(marginal.matrix))
    assert np.max(np.abs(off)) < 1e-12


def test_dilation_entropy_equals_flag_entropy_for_projective():
    """Projective branches are orthogonal, so S(A') = H(p) exactly."""
    rho = random_density((0, 1), rank=2, rng=np.random.default_rng(17))
    psi = canonical_purification(rho)
    m = MeasurementSpec.projective(Z, (0,))
    dilated, aprime, _ = measurement_dilation(psi, m)
    ens = apply_measurement(psi, m)
    h_p = -sum(p * math.log(p) for p in ens.probabilities if p > 0)
    s_flag = von_neumann_entropy(dilated.reduced(aprime))
    assert abs(s_flag - h_p) < 1e-10


def test_dilation_mirrors_mutual_information_route():
    """I(A':B) read off the dilated state matches the ensemble Holevo."""
    rho = random_density((0, 1, 2), rank=3, rng=np.random.default_rng(23))
    psi = canonical_purification(rho)
    m = MeasurementSpec.projective(Z, (0,))
    dilated, aprime, _ = measurement_dilation(psi, m)
    ens = apply_measurement(psi, m)
    chi_b = holevo_information(ens, (1,))
    mi = mutual_information(dilated, aprime, (1,))
    assert abs(mi - chi_b) < 1e-10
