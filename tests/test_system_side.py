"""System-side chi_B / chi_E routes against the purification oracle.

The dense backend evaluates both Holevo quantities from the state on the
system.  Here every system-side route is compared with ``chi2_general`` and
``holevo_information`` on the canonical purification.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from depthbound.backends import DenseContext, DenseModel
from depthbound.models import PAULI, SpinHamiltonian, ThermalEigensystem, build_tfim, gibbs_state
from depthbound.perturbative import chi2_E_eigenbasis, chi2_general, chi2_system
from depthbound.purification import (
    MeasurementSpec,
    apply_measurement,
    canonical_purification,
    holevo_information,
    projective_chi_B,
    projective_chi_E,
)
from depthbound.states import entropy_from_spectrum, operator_norm

TOL = 1e-10
PAULI_X = PAULI["X"]
Z = np.diag([1.0, -1.0])


def _random_model(rng, n):
    letters = "XYZ"
    terms = [(float(rng.uniform(-1, 1)), ((s, letters[rng.integers(3)]),)) for s in range(n)]
    for s in range(n - 1):
        pair = ((s, letters[rng.integers(3)]), (s + 1, letters[rng.integers(3)]))
        terms.append((float(rng.uniform(-1, 1)), pair))
    return SpinHamiltonian(n, tuple(terms))


def _random_observable(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = a + a.conj().T
    return h / operator_norm(h)


def _case(seed):
    """Random model, Gibbs state, probe site and a region B in random order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    ham = _random_model(rng, n)
    beta = float(rng.uniform(0.2, 3.0))
    site = int(rng.integers(n))
    others = [s for s in range(n) if s != site]
    region = tuple(int(s) for s in rng.choice(others, size=int(rng.integers(1, n)), replace=False))
    eig = ThermalEigensystem.of(ham)
    rho = gibbs_state(eig, beta)
    return rng, ham, eig, beta, rho, canonical_purification(rho), site, region


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_weak_routes_equal_purification(seed):
    rng, _, eig, beta, rho, psi, site, region = _case(seed)
    obs = _random_observable(rng)
    chi_b = chi2_system(rho, obs, (site,), region).value
    assert abs(chi_b - chi2_general(psi, obs, (site,), region).value) < TOL
    chi_e = chi2_E_eigenbasis(eig, beta, eig.rotate(obs, (site,))).value
    assert abs(chi_e - chi2_general(psi, obs, (site,), psi.env_sites).value) < TOL


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_projective_routes_equal_purification(seed):
    rng, _, eig, beta, rho, psi, site, region = _case(seed)
    spec = MeasurementSpec.projective(_random_observable(rng), (site,))
    ens = apply_measurement(psi, spec)
    assert abs(projective_chi_B(rho, spec, region) - holevo_information(ens, region)) < TOL
    chi_e = holevo_information(ens, psi.env_sites)
    assert abs(projective_chi_E(rho, spec) - chi_e) < TOL
    entropy = entropy_from_spectrum(eig.weights(beta))
    assert abs(projective_chi_E(rho, spec, entropy=entropy) - chi_e) < TOL


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rank_two_projectors_equal_purification(seed):
    """Z⊗Z on two sites has degenerate outcomes: rank-2 projectors."""
    rng = np.random.default_rng(seed)
    ham = _random_model(rng, 4)
    beta = float(rng.uniform(0.2, 3.0))
    rho = gibbs_state(ham, beta)
    psi = canonical_purification(rho)
    spec = MeasurementSpec.projective(np.kron(Z, Z), (3, 1))
    ens = apply_measurement(psi, spec)
    assert spec.n_outcomes == 2
    assert abs(projective_chi_B(rho, spec, (2, 0)) - holevo_information(ens, (2, 0))) < TOL
    assert abs(projective_chi_E(rho, spec) - holevo_information(ens, psi.env_sites)) < TOL


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from(("weak-x", "projective-x")))
def test_cli_dense_context_equals_purification(seed, measure):
    """The dense backend's per-beta context, with its X probe, on a non-prefix region."""
    _, ham, _, beta, _, psi, site, region = _case(seed)
    ctx = DenseContext(DenseModel(ham, measure, site), beta, 0.0)
    if measure == "weak-x":
        chi_b = chi2_general(psi, PAULI_X, (site,), region).value
        chi_e = chi2_general(psi, PAULI_X, (site,), psi.env_sites).value
    else:
        ens = apply_measurement(psi, MeasurementSpec.projective(PAULI_X, (site,)))
        chi_b = holevo_information(ens, region)
        chi_e = holevo_information(ens, psi.env_sites)
    assert abs(ctx.chi_b(region) - chi_b) < TOL
    assert abs(ctx.chi_e - chi_e) < TOL


def _mirror_symmetric_chain(rng, n):
    """A random ∏X-symmetric chain made symmetric under the reflection
    j ↔ n−1−j by adding each term's mirror image with the same coefficient,
    so that each sector splits into reflection halves; complex when a term
    has an odd number of Y letters."""
    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        sites = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        letters = ["XYZ"[rng.integers(3)] for _ in sites]
        z_or_y = [i for i, letter in enumerate(letters) if letter != "X"]
        if len(z_or_y) % 2:
            letters[z_or_y[-1]] = "X"
        ops = tuple(sorted(zip((int(s) for s in sites), letters)))
        coeff = float(rng.integers(-8, 9)) / 8.0
        for term in (ops, tuple(sorted((n - 1 - s, letter) for s, letter in ops))):
            terms[term] = coeff
    if n >= 3 and rng.integers(2):
        ops = ((0, "X"), (1, "Y"), (2, "Z"))  # with its mirror image, a complex H
        terms[ops] = terms[tuple(sorted((n - 1 - s, letter) for s, letter in ops))] = 0.25
    return SpinHamiltonian(n, tuple((coeff, ops) for ops, coeff in terms.items()))


def _parity_even_model(rng, n):
    """The TFIM, a custom chain whose terms each carry an even number of Z
    and Y letters, so that H commutes with ∏X, or such a chain that is also
    mirror-symmetric; sometimes complex."""
    kind = rng.integers(3)
    if kind == 0:
        return build_tfim(n, float(rng.uniform(0.3, 1.7)))
    if kind == 1:
        return _mirror_symmetric_chain(rng, n)
    terms = []
    for s in range(n):
        terms.append((float(rng.uniform(-1, 1)), ((s, "X"),)))
    for s in range(n - 1):
        pair = ["XX", "YY", "ZZ", "YZ", "ZY"][rng.integers(5)]
        terms.append((float(rng.uniform(-1, 1)), ((s, pair[0]), (s + 1, pair[1]))))
    if n >= 3 and rng.integers(2):
        terms.append((float(rng.uniform(-1, 1)), ((0, "X"), (1, "Y"), (2, "Z"))))
    return SpinHamiltonian(n, tuple(terms))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(("weak-x", "projective-x")),
    st.sampled_from(("first", "last", "center", "interior")),
)
def test_cli_dense_context_in_parity_sectors(seed, measure, where):
    """A ∏X-symmetric H runs on its two sectors, each split into reflection
    halves when H is also mirror-symmetric: the context equals the
    Gibbs-state routes to 1e-12 and the purification to 1e-10, with the
    probe at site 0, at the far edge, at the centre or at a random interior
    site (site 1 at n = 2)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    ham = _parity_even_model(rng, n)
    beta = float(rng.uniform(0.2, 3.0))
    if where == "interior":
        site = int(rng.integers(1, max(n - 1, 2)))
    else:
        site = {"first": 0, "last": n - 1, "center": (n - 1) // 2}[where]
    others = [s for s in range(n) if s != site]
    region = tuple(int(s) for s in rng.choice(others, size=int(rng.integers(1, n)), replace=False))
    ctx = DenseContext(DenseModel(ham, measure, site), beta, 0.0)
    assert len(ctx.model.eig.sectors) == 2
    eig = ThermalEigensystem.of(ham)
    rho = gibbs_state(eig, beta)
    psi = canonical_purification(rho)
    if measure == "weak-x":
        rho_b = chi2_system(rho, PAULI_X, (site,), region).value
        rho_e = chi2_E_eigenbasis(eig, beta, eig.rotate(PAULI_X, (site,))).value
        psi_b = chi2_general(psi, PAULI_X, (site,), region).value
        psi_e = chi2_general(psi, PAULI_X, (site,), psi.env_sites).value
    else:
        spec = MeasurementSpec.projective(PAULI_X, (site,))
        rho_b = projective_chi_B(rho, spec, region)
        rho_e = projective_chi_E(rho, spec)
        ens = apply_measurement(psi, spec)
        psi_b = holevo_information(ens, region)
        psi_e = holevo_information(ens, psi.env_sites)
    chi_b = ctx.chi_b(region)
    assert abs(chi_b - rho_b) < 1e-12
    assert abs(ctx.chi_e - rho_e) < 1e-12
    assert abs(chi_b - psi_b) < TOL
    assert abs(ctx.chi_e - psi_e) < TOL
    _, marginal = ctx.last  # the marginal chi_B was computed from
    assert marginal.sites == (site,) + region
    assert np.max(np.abs(marginal.matrix - rho.reduced((site,) + region).matrix)) < 1e-12
