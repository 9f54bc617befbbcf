"""Second-order Holevo coefficients and the operator-kernel machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthbound.models import build_tfim, gibbs_state, holevo_finite_difference
from depthbound.perturbative import (
    build_xi,
    chi2_B_correlator_lb,
    chi2_E_eigensum,
    chi2_E_spectral,
    chi2_general,
    f_beta_weight,
    lieb_R_map,
    lieb_T_map,
)
from depthbound.purification import canonical_purification
from depthbound.states import DensityOperator, StateVector, operator_norm

RNG = np.random.default_rng(6021)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def random_density(n_sites, rng=RNG, floor=1e-3):
    """Full-rank random state (kernels need strictly positive spectra)."""
    d = 2 ** n_sites
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T + floor * np.eye(d)
    return DensityOperator(m / np.trace(m).real, tuple(range(n_sites)))


def random_hermitian_unit(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a + a.conj().T
    return h / operator_norm(h)


def quadrature_resolvent_integral(mat, x, power, nodes=600):
    """Gauss-Legendre oracle for ∫(M+z)⁻¹ x [(M+z)⁻¹ x]^{power-1} (M+z)⁻¹ dz.

    Substitutes z = t/(1−t) to compress the half line onto (0, 1).
    """
    t, wts = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (t + 1.0)
    wts = 0.5 * wts
    d = mat.shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for ti, wi in zip(t, wts):
        z = ti / (1.0 - ti)
        jac = 1.0 / (1.0 - ti) ** 2
        res = np.linalg.inv(mat + z * np.eye(d))
        term = res.copy()
        for _ in range(power):
            term = term @ x @ res
        acc += wi * jac * term
    return acc


# ---------------------------------------------------------------------------
# integral kernels
# ---------------------------------------------------------------------------


def test_T_of_sigma_is_identity():
    sigma = random_density(2)
    out = lieb_T_map(sigma, sigma.matrix)
    assert np.allclose(out, np.eye(4), atol=1e-10)


def test_T_on_maximally_mixed_scales_by_dimension():
    sigma = DensityOperator(np.eye(4) / 4.0, (0, 1))
    xi = random_hermitian_unit(4)
    assert np.allclose(lieb_T_map(sigma, xi), 4.0 * xi, atol=1e-10)


def test_T_matches_quadrature():
    sigma = random_density(2, rng=np.random.default_rng(3))
    xi = random_hermitian_unit(4, rng=np.random.default_rng(4))
    direct = lieb_T_map(sigma, xi)
    oracle = quadrature_resolvent_integral(sigma.matrix, xi, power=1)
    assert np.max(np.abs(direct - oracle)) < 1e-7


def test_R_of_rho_is_half_identity():
    rho = random_density(2)
    out = lieb_R_map(rho, rho.matrix)
    assert np.allclose(out, 0.5 * np.eye(4), atol=1e-10)


def test_R_matches_quadrature():
    rho = random_density(2, rng=np.random.default_rng(7))
    x = random_hermitian_unit(4, rng=np.random.default_rng(8))
    direct = lieb_R_map(rho, x)
    oracle = quadrature_resolvent_integral(rho.matrix, x, power=2)
    assert np.max(np.abs(direct - oracle)) < 1e-7


def test_R_is_positive_semidefinite():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        rho = random_density(2, rng=rng)
        x = random_hermitian_unit(4, rng=rng)
        out = lieb_R_map(rho, x)
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_T_linearity():
    sigma = random_density(1)
    a = random_hermitian_unit(2)
    b = random_hermitian_unit(2)
    lhs = lieb_T_map(sigma, 0.3 * a + 0.7 * b)
    rhs = 0.3 * lieb_T_map(sigma, a) + 0.7 * lieb_T_map(sigma, b)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# response operators
# ---------------------------------------------------------------------------


def test_xi_trace_norm_bounded_by_observable_norm():
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        rho = random_density(3, rng=rng)
        psi = canonical_purification(rho)
        obs = random_hermitian_unit(2, rng=rng)
        for region in [(1,), (1, 2), psi.env_sites]:
            xi = build_xi(psi, obs, (0,), region)
            assert xi.trace_norm() <= 1.0 + 1e-9


def test_xi_sandwiched_by_state():
    """−rho^X ⪯ xi^X ⪯ rho^X when ||O|| ≤ 1."""
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        rho = random_density(3, rng=rng)
        psi = canonical_purification(rho)
        obs = random_hermitian_unit(2, rng=rng)
        region = (1, 2)
        xi = build_xi(psi, obs, (0,), region)
        red = psi.vector.reduced(region).matrix
        assert np.linalg.eigvalsh(red - xi.matrix).min() > -1e-9
        assert np.linalg.eigvalsh(red + xi.matrix).min() > -1e-9


def test_T_of_xi_has_unit_operator_norm_bound():
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        rho = random_density(3, rng=rng)
        psi = canonical_purification(rho)
        obs = random_hermitian_unit(2, rng=rng)
        region = (1,)
        xi = build_xi(psi, obs, (0,), region)
        t_xi = lieb_T_map(psi.vector.reduced(region), xi.matrix)
        assert operator_norm(t_xi) <= 1.0 + 1e-9


def test_xi_rejects_overlapping_region():
    rho = random_density(2)
    psi = canonical_purification(rho)
    with pytest.raises(ValueError):
        build_xi(psi, X, (0,), (0, 1))


def test_xi_trace_equals_mean():
    """Tr xi^X = <O> for every region."""
    rho = random_density(3)
    psi = canonical_purification(rho)
    obs = random_hermitian_unit(2)
    mean = rho.expectation(obs, (0,))
    for region in [(1,), (2,), psi.env_sites]:
        xi = build_xi(psi, obs, (0,), region)
        assert abs(np.trace(xi.matrix).real - mean) < 1e-10


# ---------------------------------------------------------------------------
# chi2 for general regions
# ---------------------------------------------------------------------------


def test_chi2_vanishes_on_uncorrelated_region():
    rng = np.random.default_rng(31)
    a = random_density(1, rng=rng)
    b = random_density(1, rng=rng)
    rho = DensityOperator(np.kron(a.matrix, b.matrix), (0, 1))
    psi = canonical_purification(rho)
    res = chi2_general(psi, Z, (0,), (1,))
    assert abs(res.value) < 1e-12


def test_chi2_nonnegative():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        rho = random_density(3, rng=rng)
        psi = canonical_purification(rho)
        obs = random_hermitian_unit(2, rng=rng)
        for region in [(1,), (1, 2), psi.env_sites]:
            res = chi2_general(psi, obs, (0,), region)
            assert res.value > -1e-12


def test_chi2_rejects_oversized_observable():
    rho = random_density(2)
    psi = canonical_purification(rho)
    with pytest.raises(ValueError):
        chi2_general(psi, 1.5 * Z, (0,), (1,))


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_chi2_matches_finite_difference_holevo(beta):
    """The quadratic coefficient reproduces chi(mu)/(4 mu²) as mu → 0."""
    ham = build_tfim(3, 1.1)
    rho = gibbs_state(ham, beta)
    psi = canonical_purification(rho)
    obs = random_hermitian_unit(2, rng=np.random.default_rng(int(beta * 10)))
    for region in [(2,), "env"]:
        target = psi.env_sites if region == "env" else region
        res = chi2_general(psi, obs, (0,), target)
        oracle = holevo_finite_difference(ham, beta, obs, (0,), region)
        assert res.value == pytest.approx(oracle.value, rel=1e-5, abs=1e-12)


def test_chi2_env_equals_eigensum_for_gibbs():
    """General-region formula on the thermal purification against the
    closed eigenbasis sum, which never builds the doubled register."""
    rng = np.random.default_rng(55)
    h = random_hermitian_unit(8, rng=rng)
    beta = 2.3
    w = np.linalg.eigvalsh(h)
    e = w - w.min()
    gibbs = None
    wv, vv = np.linalg.eigh(h)
    p = np.exp(-beta * (wv - wv.min()))
    p /= p.sum()
    gibbs = DensityOperator(vv @ np.diag(p) @ vv.conj().T, (0, 1, 2))
    psi = canonical_purification(gibbs)
    obs = random_hermitian_unit(2, rng=rng)
    general = chi2_general(psi, obs, (0,), psi.env_sites)
    embedded = np.kron(obs, np.eye(4))
    eigensum = chi2_E_eigensum(h, beta, embedded)
    assert general.value == pytest.approx(eigensum.value, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# spectral-weight route
# ---------------------------------------------------------------------------


def test_eigensum_matches_two_level_closed_form():
    omega0 = 1.7
    beta = 0.9
    h = np.diag([0.0, omega0])
    res = chi2_E_eigensum(h, beta, X)
    p0 = 1.0 / (1.0 + math.exp(-beta * omega0))
    p1 = 1.0 - p0
    f = lambda w: beta * w / math.expm1(beta * w)
    expected = 0.5 * (p0 * f(omega0) + p1 * f(-omega0))
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_spectral_agrees_with_eigensum_two_level():
    omega0 = 0.8
    beta = 3.1
    h = np.diag([0.0, omega0])
    p0 = 1.0 / (1.0 + math.exp(-beta * omega0))
    lines = (np.array([omega0, -omega0]), np.array([p0, 1.0 - p0]))
    a = chi2_E_eigensum(h, beta, X)
    b = chi2_E_spectral(lines, beta)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_spectral_accepts_lines_object():
    class Lines:
        frequencies = np.array([0.5, -0.5])
        weights = np.array([0.6, 0.4])

    beta = 1.0
    got = chi2_E_spectral(Lines(), beta)
    f = lambda w: beta * w / math.expm1(beta * w)
    assert got.value == pytest.approx(0.5 * (0.6 * f(0.5) + 0.4 * f(-0.5)), rel=1e-12)


# ---------------------------------------------------------------------------
# f_beta weight
# ---------------------------------------------------------------------------


def test_f_beta_continuity_at_zero():
    beta = 2.0
    assert f_beta_weight(0.0, beta) == pytest.approx(1.0, abs=1e-12)
    w = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
    vals = f_beta_weight(w, beta)
    assert np.allclose(vals, 1.0, atol=1e-8)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_f_beta_detailed_balance(omega, beta):
    lhs = f_beta_weight(-omega, beta)
    rhs = f_beta_weight(omega, beta) * math.exp(min(beta * omega, 700.0))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)


def test_f_beta_monotone_decreasing():
    w = np.linspace(-5.0, 5.0, 301)
    vals = f_beta_weight(w, 1.5)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals[w > 0] < 1.0)
    assert np.all(vals[w < 0] > 1.0)


def _where_f_beta(omega, beta):
    """f_beta_weight as it was: np.where over the series and the quotient."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.asarray(beta * np.asarray(omega, dtype=float))
        small = np.abs(x) < 1e-8
        em = np.expm1(np.where(small, 1.0, x))
        out = np.where(small, 1.0 - x / 2.0 + x * x / 12.0, x / em)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


_OMEGA = st.one_of(
    st.floats(-1e-8, 1e-8),  # |beta*omega| < 1e-8 for beta <= 1: the series
    st.just(0.0),
    st.just(-0.0),
    st.floats(-50.0, 50.0),
    st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),  # beta*omega overflows
)


@settings(deadline=None, max_examples=80)
@given(st.lists(_OMEGA, min_size=1, max_size=40), st.floats(min_value=1e-3, max_value=1e3))
def test_f_beta_weight_bit_equal_to_where_form(omegas, beta):
    """The in-place kernel gives the bits of the np.where form on arrays, on
    each scalar, and on an array long enough to span several chunks."""
    omega = np.array(omegas)
    assert f_beta_weight(omega, beta).tobytes() == _where_f_beta(omega, beta).tobytes()
    for w in omegas:
        assert np.float64(f_beta_weight(w, beta)).tobytes() == np.float64(_where_f_beta(w, beta)).tobytes()
    long = np.resize(omega, 70007).reshape(7, 10001)
    assert f_beta_weight(long, beta).tobytes() == _where_f_beta(long, beta).tobytes()


def test_f_beta_scalar_and_array_paths_agree():
    beta = 0.7
    for w in (-2.0, -1e-10, 0.0, 3e-9, 4.2):
        arr = f_beta_weight(np.array([w]), beta)
        assert f_beta_weight(w, beta) == pytest.approx(float(arr[0]), rel=1e-13)


def test_f_beta_takes_its_limits_at_infinite_beta():
    """At beta = inf, omega > 0 weighs 0, omega = 0 weighs 1 and omega < 0
    weighs inf, with no warning; a finite beta whose beta*omega overflows
    still gives nan, which the chi_E routes reject."""
    omega = np.array([4.2, 1e-300, 0.0, -0.0, -1e-300, -2.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = f_beta_weight(omega, math.inf)
        scalars = [f_beta_weight(w, math.inf) for w in (1.0, 0.0)]
    assert weights[:-1].tolist() == [0.0, 0.0, 1.0, 1.0, math.inf, math.inf]
    assert math.isnan(weights[-1])
    assert scalars == [0.0, 1.0]
    assert math.isnan(f_beta_weight(1e10, 1e300))


# ---------------------------------------------------------------------------
# correlator lower bound
# ---------------------------------------------------------------------------


def test_correlator_lb_never_exceeds_chi2():
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(5000 + seed)
        rho = random_density(3, rng=rng)
        psi = canonical_purification(rho)
        obs_a = random_hermitian_unit(2, rng=rng)
        obs_b = random_hermitian_unit(2, rng=rng)
        lb = chi2_B_correlator_lb(rho, obs_a, (0,), obs_b, (2,))
        full = chi2_general(psi, obs_a, (0,), (2,))
        assert lb.value <= full.value + 1e-10
        if lb.value > 1e-8:
            hits += 1
    assert hits > 20  # the bound should usually be non-vacuous


def test_correlator_lb_validation():
    rho = random_density(2)
    with pytest.raises(ValueError):
        chi2_B_correlator_lb(rho, X, (0,), X, (0,))
    with pytest.raises(ValueError):
        chi2_B_correlator_lb(rho, X, (0,), 2.0 * X, (1,))


def test_correlator_lb_tight_for_classically_correlated_pair():
    """For a ZZ-correlated diagonal state probed with Z, the bound saturates."""
    p = 0.85
    mat = np.diag([p / 2, (1 - p) / 2, (1 - p) / 2, p / 2])
    rho = DensityOperator(mat, (0, 1))
    psi = canonical_purification(rho)
    lb = chi2_B_correlator_lb(rho, Z, (0,), Z, (1,))
    full = chi2_general(psi, Z, (0,), (1,))
    assert lb.value == pytest.approx(full.value, rel=1e-9)
