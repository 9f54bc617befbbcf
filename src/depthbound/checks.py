"""Numerical cross-checks shared by ``depthbound selftest`` and the test suite.

Each check returns its worst error; the caller owns the seed, the instance
count, the tolerance and any runtime budget.  :func:`selftest` runs the six
condensed suites the ``selftest`` subcommand prints.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import g_func, k_func
from .cft import alpha_delta, h_delta
from .fermion import (bdg_diagonalize, chi2_E_quadratic, connected_xx, gaussian_entropy, many_body_energies,
                      pfaffian, thermal_covariance, x_expectation)
from .models import (PAULI, SpinHamiltonian, build_tfim, dynamical_correlation, gibbs_state,
                     holevo_finite_difference)
from .perturbative import build_xi, chi2_E_eigensum, chi2_E_spectral, chi2_general, lieb_R_map, lieb_T_map
from .purification import canonical_purification
from .states import StateVector, embed_operator, operator_norm, von_neumann_entropy

X = PAULI["X"]


def random_observable(rng: np.random.Generator) -> np.ndarray:
    """A random Hermitian one-site observable of operator norm 1."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = a + a.conj().T
    return h / operator_norm(h)


def special_values_error() -> float:
    """Largest error of h_Δ, α_Δ, g and k at their closed-form values."""
    checks = (
        (h_delta(1.0), 2.0 / 3.0),
        (h_delta(0.5), math.pi / 4.0),
        (alpha_delta(1.0), 8.0 / 3.0),
        (g_func(1.0), 2.0 * math.log(2.0)),
        (k_func(0.0, 2), 0.0),
    )
    return max(abs(a - b) for a, b in checks)


def finite_difference_error(rng: np.random.Generator, instances: int) -> float:
    """Largest relative error of the quadratic coefficient against the
    finite-difference Holevo oracle, on random 2–4 site chains of one- and
    two-site Pauli terms with a random probe; region B is the purifying
    environment on even instances (and n = 2), else random other sites."""
    letters = "XYZ"
    worst = 0.0
    for k in range(instances):
        n = int(rng.integers(2, 5))
        terms = [(float(rng.uniform(-1, 1)), ((s, letters[rng.integers(3)]),)) for s in range(n)]
        terms += [
            (float(rng.uniform(-1, 1)), ((s, letters[rng.integers(3)]), (s + 1, letters[rng.integers(3)])))
            for s in range(n - 1)
        ]
        ham = SpinHamiltonian(n, tuple(terms))
        beta = float(rng.uniform(0.4, 2.5))
        obs = random_observable(rng)
        site = int(rng.integers(0, n))
        psi = canonical_purification(gibbs_state(ham, beta))
        if k % 2 == 0 or n == 2:
            region, oracle_region = psi.env_sites, "env"
        else:
            others = [s for s in range(n) if s != site]
            size = int(rng.integers(1, len(others) + 1))
            region = tuple(sorted(int(s) for s in rng.choice(others, size=size, replace=False)))
            oracle_region = region
        value = chi2_general(psi, obs, (site,), region).value
        est = holevo_finite_difference(ham, beta, obs, (site,), oracle_region)
        worst = max(worst, abs(value - est.value) / max(abs(est.value), 1e-10))
    return worst


def route_equality_error(sizes: tuple[int, ...], beta: float = 2.0) -> float:
    """Largest pairwise difference of the eigensum, spectral and general
    routes to χ_E for X at the center of critical tfim chains."""
    worst = 0.0
    for n in sizes:
        ham = build_tfim(n, 1.0)
        site = (n - 1) // 2
        x_emb = embed_operator(X, (site,), ham.sites)
        eigensum = chi2_E_eigensum(ham, beta, x_emb).value
        spectral = chi2_E_spectral(dynamical_correlation(ham, beta, x_emb), beta).value
        psi = canonical_purification(gibbs_state(ham, beta))
        general = chi2_general(psi, X, (site,), psi.env_sites).value
        worst = max(worst, abs(eigensum - spectral), abs(eigensum - general), abs(spectral - general))
    return worst


def perturbation_violation(rng: np.random.Generator, instances: int) -> float:
    """Largest violation of the perturbation inequalities on random
    three-qubit pure states: ‖ξ‖₁ ≤ 1, ‖T(ξ)‖ ≤ 1, ‖R(ξ)‖ ≤ 1 and σ ± ξ ≥ 0."""
    regions = ((1,), (2,), (1, 2))
    worst = -np.inf
    for _ in range(instances):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec = StateVector(amps / np.linalg.norm(amps), (0, 1, 2))
        obs = random_observable(rng)
        region = regions[int(rng.integers(3))]
        xi = build_xi(vec, obs, (0,), region)
        sigma = vec.reduced(region)
        trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(xi.matrix))))
        worst = max(worst, trace_norm - 1.0, operator_norm(lieb_T_map(sigma, xi.matrix)) - 1.0,
                    operator_norm(lieb_R_map(sigma, xi.matrix)) - 1.0,
                    -float(np.linalg.eigvalsh(sigma.matrix - xi.matrix).min()),
                    -float(np.linalg.eigvalsh(sigma.matrix + xi.matrix).min()))
    return worst


def pfaffian_error(rng: np.random.Generator, dims, floor: float) -> float:
    """Largest |Pf(A)² − det A| / max(|det A|, floor) over random
    antisymmetric A, one of each dimension in ``dims``."""
    worst = 0.0
    for dim in dims:
        a = rng.normal(size=(dim, dim))
        m = a - a.T
        pf = pfaffian(m)
        det = np.linalg.det(m)
        worst = max(worst, abs(pf * pf - det) / max(abs(det), floor))
    return worst


def cross_backend_errors(n: int, beta: float = 2.0) -> dict[str, float]:
    """Free-fermion vs dense differences on the critical n-site chain: the
    many-body spectrum, <X> and connected <XX> at the center, block
    entropies of 2 and n/2 sites, and χ_E."""
    ham = build_tfim(n, 1.0)
    spectrum = bdg_diagonalize(n, 1.0)
    dense_spec = np.sort(np.linalg.eigvalsh(ham.to_matrix()))
    free_spec = np.sort(many_body_energies(spectrum))
    rho = gibbs_state(ham, beta)
    cov = thermal_covariance(spectrum, beta)
    site = (n - 1) // 2
    x_dense = rho.expectation(X, (site,))
    xx_dense = rho.expectation(np.kron(X, X), (1, site)) - rho.expectation(X, (1,)) * x_dense
    entropy = max(
        abs(gaussian_entropy(cov, region) - von_neumann_entropy(rho.reduced(region)))
        for region in (tuple(range(2)), tuple(range(n // 2)))
    )
    chi_free = chi2_E_quadratic(spectrum, beta, site).value
    chi_dense = chi2_E_eigensum(ham, beta, embed_operator(X, (site,), ham.sites)).value
    return {
        "spec": float(np.max(np.abs(dense_spec - free_spec))),
        "<X>": abs(x_expectation(cov, site) - x_dense),
        "<XX>": abs(connected_xx(cov, 1, site) - xx_dense),
        "S": entropy,
        "chi_E": abs(chi_free - chi_dense),
    }


def selftest(seed: int) -> int:
    """Run the six condensed suites, print one [PASS]/[FAIL] line each and a
    summary; return 0 when all pass, else 4."""
    rng = np.random.default_rng(seed)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")

    worst = special_values_error()
    report("special values", worst < 1e-12, f"max |err| = {worst:.2e}")
    worst = finite_difference_error(rng, 3)
    report("finite-difference oracle", worst < 1e-4, f"max rel err = {worst:.2e}")
    worst = route_equality_error((6,))
    report("route equality (n=6)", worst < 1e-8, f"max |diff| = {worst:.2e}")
    worst = perturbation_violation(rng, 100)
    report("map contraction", worst < 1e-9, f"max excess = {worst:.2e}")
    worst = pfaffian_error(rng, 2 * rng.integers(2, 5, size=20), 1e-12)
    report("pfaffian consistency", worst < 1e-8, f"max rel err = {worst:.2e}")
    errs = cross_backend_errors(8)
    ok = errs["spec"] < 1e-9 and errs["<X>"] < 1e-9 and max(errs.values()) < 1e-8
    report("cross-backend (n=8)", ok, ", ".join(f"{key} {err:.1e}" for key, err in errs.items()))
    print(f"selftest: {6 - failures}/6 suites passed")
    return 0 if failures == 0 else 4
