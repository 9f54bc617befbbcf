"""Continuum closed forms, amplitude fits, and the lattice bridge."""

import math

import numpy as np
import pytest

from depthbound import backends
from depthbound.cft import (
    CftParams,
    alpha_delta,
    c_constant,
    chi2_B_cft,
    chi2_B_zero_temperature,
    chi2_E_cft,
    depth_bound_cft,
    find_crossing,
    fit_kappa,
    h_delta,
    k2_cft,
)
from depthbound.fermion import (
    bdg_diagonalize,
    chi2_E_quadratic,
    connected_xx,
    ground_state_covariance,
    thermal_covariance,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# special values and shape of h, alpha
# ---------------------------------------------------------------------------


def test_h_special_values():
    assert h_delta(1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert h_delta(0.5) == pytest.approx(math.pi / 4.0, rel=1e-14)


def test_alpha_special_values():
    assert alpha_delta(1.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert alpha_delta(0.5) == pytest.approx(math.pi / 2.0, rel=1e-14)


def test_h_positive_decreasing():
    deltas = np.linspace(0.1, 4.0, 60)
    vals = [h_delta(d) for d in deltas]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_chi2_E_closed_form_identities():
    """kappa alpha (pi T)^{2D} == kappa h (2 pi T)^{2D} for every Delta."""
    for delta in (0.5, 1.0, 1.3, 2.0):
        p = CftParams(delta, 0.31, 0.017)
        direct = p.kappa * alpha_delta(delta) * (math.pi * p.temperature) ** (2 * delta)
        folded = p.kappa * h_delta(delta) * (2 * math.pi * p.temperature) ** (2 * delta)
        assert chi2_E_cft(p) == pytest.approx(direct, rel=1e-13)
        assert folded == pytest.approx(direct, rel=1e-13)


def test_params_validation():
    with pytest.raises(ValueError):
        CftParams(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        CftParams(1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        CftParams(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# interval formula
# ---------------------------------------------------------------------------


def test_interval_validation():
    p = CftParams(1.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        chi2_B_cft(p, 0.0, 5.0)
    with pytest.raises(ValueError):
        chi2_B_cft(p, 7.0, 5.0)


def test_whole_line_recovers_environment_coefficient():
    """An interval straddling the probe and growing to the whole line
    captures everything the environment captures."""
    for delta in (0.5, 1.0, 1.5):
        p = CftParams(delta, 0.2, 0.02)
        big = 5e3 / p.temperature
        assert chi2_B_cft(p, -big, big) == pytest.approx(chi2_E_cft(p), rel=1e-10)


def test_semi_infinite_interval_equals_chi_e_plus_k2():
    """chi_B([x, far)) − chi_E → K2(x): exact in the far limit via
    e^{−y}/sinh(y) = 2/(e^{2y}−1)."""
    for delta, x in [(0.5, 3.0), (1.0, 7.0), (2.0, 11.0)]:
        p = CftParams(delta, 0.45, 0.03)
        far = 650.0 / (math.pi * p.temperature)  # huge but sinh-representable
        lhs = chi2_B_cft(p, x, far)
        rhs = chi2_E_cft(p) + k2_cft(p, x)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_zero_temperature_limit_and_delegation():
    delta, kappa = 1.0, 0.7
    closed = chi2_B_zero_temperature(delta, kappa, 2.0, 9.0)
    assert closed == pytest.approx(kappa * h_delta(delta) * (7.0 / 18.0) ** 2, rel=1e-13)
    p_cold = CftParams(delta, kappa, 0.0)
    assert chi2_B_cft(p_cold, 2.0, 9.0) == pytest.approx(closed, rel=1e-13)
    p_tiny = CftParams(delta, kappa, 1e-9)
    assert chi2_B_cft(p_tiny, 2.0, 9.0) == pytest.approx(closed, rel=1e-6)


def test_interval_monotonicity_in_near_edge():
    """Pushing the near edge away loses signal."""
    p = CftParams(1.0, 0.3, 0.04)
    far = 1e4
    vals = [chi2_B_cft(p, x1, far) for x1 in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# criterion and depth bound
# ---------------------------------------------------------------------------


def test_k2_sign_change_at_beta_ln2_over_2pi():
    p = CftParams(1.0, 0.2, 1.0 / 55.0)
    beta = 1.0 / p.temperature
    x_zero = beta * LN2 / (2.0 * math.pi)
    assert k2_cft(p, x_zero) == pytest.approx(0.0, abs=1e-14)
    assert k2_cft(p, 0.9 * x_zero) > 0.0
    assert k2_cft(p, 1.1 * x_zero) < 0.0


def test_depth_bound_exact_preparation_value():
    for beta in (10.0, 50.0, 77.3):
        got = depth_bound_cft(beta, 0.0, 1.0, 123.0)
        assert got == beta * math.log(2.0) / (4.0 * math.pi)


def test_depth_bound_weakens_with_epsilon():
    c = c_constant(1.0, 0.1)
    vals = [depth_bound_cft(60.0, e, 1.0, c) for e in (0.0, 1e-8, 1e-6, 1e-4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_depth_bound_validation():
    with pytest.raises(ValueError):
        depth_bound_cft(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        depth_bound_cft(10.0, -1e-9, 1.0, 1.0)


@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("epsilon", [1e-7, 1e-5, 1e-3])
def test_depth_bound_consistent_with_k2_crossing(delta, epsilon):
    """2 * depth is exactly the x where K2(x) = 12 eps, by construction of
    the constant c = 12/((2 pi)^{2D} kappa h)."""
    kappa = 0.37
    beta = 42.0
    p = CftParams(delta, kappa, 1.0 / beta)
    c = c_constant(delta, kappa)
    depth = depth_bound_cft(beta, epsilon, delta, c)
    x_star = 2.0 * depth
    assert k2_cft(p, x_star) == pytest.approx(12.0 * epsilon, rel=1e-10)


@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
def test_k2_small_argument_matches_series(delta):
    """At y = 2 pi T x ~ 1e-10, ln(1 - e^{-y}) = ln y - y/2 + O(y^2)."""
    kappa = 0.37
    p = CftParams(delta, kappa, 1.0 / (2.0 * math.pi * 1e10))
    y = 2.0 * math.pi * p.temperature * 1.0
    prefac = kappa * h_delta(delta) * (2.0 * math.pi * p.temperature) ** (2.0 * delta)
    series = prefac * (math.exp(-2.0 * delta * (y + math.log(y) - 0.5 * y)) - 1.0)
    assert k2_cft(p, 1.0) == pytest.approx(series, rel=1e-12)


def test_interval_formula_at_vanishing_temperature():
    """sinh arguments far below 1e-16 still reach the zero-temperature form."""
    delta, kappa = 1.0, 0.7
    closed = chi2_B_zero_temperature(delta, kappa, 2.0, 9.0)
    assert chi2_B_cft(CftParams(delta, kappa, 1e-20), 2.0, 9.0) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("beta", [1e100, 1.34e154, 1e300])
@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
def test_depth_bound_large_beta_limit(beta, delta):
    """c beta^{2D} eps overflows a float here; the bound tends to
    (c eps)^{-1/(2D)} / (4 pi), which is 1/(4 pi sqrt(c eps)) at D = 1."""
    epsilon = 0.1
    c = c_constant(delta, 0.37)
    limit = (c * epsilon) ** (-1.0 / (2.0 * delta)) / (4.0 * math.pi)
    assert depth_bound_cft(beta, epsilon, delta, c) == pytest.approx(limit, rel=1e-12)


# ---------------------------------------------------------------------------
# amplitude fits
# ---------------------------------------------------------------------------


def test_fit_kappa_recovers_exact_power_law():
    kappa, delta = 0.42, 1.0
    xs = np.arange(10.0, 51.0, 2.0)
    cs = kappa / xs ** (2 * delta)
    fit = fit_kappa(xs, cs, delta)
    assert fit.kappa == pytest.approx(kappa, rel=1e-12)
    assert fit.slope == -2.0 * delta
    assert fit.residual_rms < 1e-12


def test_fit_kappa_free_exponent_mode():
    kappa, delta = 0.9, 0.5
    xs = np.arange(10.0, 41.0, 1.0)
    cs = kappa / xs ** (2 * delta)
    fit = fit_kappa(xs, cs, delta, free_exponent=True)
    assert fit.slope == pytest.approx(-2 * delta, abs=1e-10)
    assert fit.kappa == pytest.approx(kappa, rel=1e-9)


def test_fit_kappa_rejects_non_power_law():
    xs = np.arange(10.0, 31.0, 1.0)
    cs = np.exp(-xs / 3.0)  # exponential decay, not a power law
    with pytest.raises(ValueError):
        fit_kappa(xs, cs, 1.0)


def test_fit_kappa_input_validation():
    with pytest.raises(ValueError):
        fit_kappa([10, 11, 12], [1, 1, 1], 1.0)  # too few
    with pytest.raises(ValueError):
        fit_kappa([2, 11, 12, 13, 14], np.ones(5), 1.0)  # below min separation
    with pytest.raises(ValueError):
        fit_kappa([10, 11, 12, 13, 14], [1, 1, -1, 1, 1], 1.0)  # sign


def test_critical_connected_xx_follows_pfeuty_closed_form():
    """At g = 1 the connected X correlator is 4/(pi^2 (4 r^2 - 1)) (Pfeuty
    1970).  From the centre of an n = 1001 chain, at r = 10 ... 50 the
    lattice value is within -0.26 % and +0.14 % of it."""
    n = 1001
    center = backends._center_site(n)
    cov = ground_state_covariance(n, 1.0, prefix=center + 1)
    for r in range(10, 51):
        exact = 4.0 / (math.pi**2 * (4 * r * r - 1))
        assert connected_xx(cov, center, center - r) == pytest.approx(exact, rel=5e-3)


def test_lattice_kappa_fit_at_n_1001_is_one_over_pi_squared(monkeypatch):
    """The amplitude fit the cft backend runs, on an n = 1001 chain, lies
    within 3.8e-4 of kappa = 1/pi^2, the closed form's amplitude."""
    monkeypatch.setattr(backends, "_KAPPA_CACHE", {})
    assert backends.fit_lattice_kappa(1001, 1.0) == pytest.approx(1.0 / math.pi**2, rel=1e-3)


# ---------------------------------------------------------------------------
# crossing finder
# ---------------------------------------------------------------------------


def test_find_crossing_linear_case():
    xs = [1.0, 2.0, 3.0, 4.0]
    ce = [1.0] * 4
    cb = [3.0, 2.0, 1.0, 0.0]  # K = 2, 1, 0, -1: crossing exactly at x=3
    res = find_crossing(xs, cb, ce, beta=10.0)
    assert res.u_star == pytest.approx(0.3, rel=1e-13)
    assert res.source == "lattice-scan"


def test_find_crossing_with_threshold():
    xs = [1.0, 2.0]
    cb = [2.0, 0.0]
    ce = [0.0, 0.0]
    res = find_crossing(xs, cb, ce, beta=4.0, threshold=1.0, epsilon=1e-3)
    assert res.u_star == pytest.approx(1.5 / 4.0, rel=1e-13)
    assert res.epsilon == 1e-3


def test_find_crossing_requires_bracket():
    xs = [1.0, 2.0, 3.0]
    ce = [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        find_crossing(xs, [0.5, 0.4, 0.3], ce, beta=1.0)  # never above
    with pytest.raises(ValueError):
        find_crossing(xs, [3.0, 2.5, 2.0], ce, beta=1.0)  # never below
    with pytest.raises(ValueError):
        find_crossing([1.0, 1.0, 2.0], [2.0, 1.5, 0.5], ce, beta=1.0)


# ---------------------------------------------------------------------------
# lattice bridge
# ---------------------------------------------------------------------------


BRIDGE_N = 301
BRIDGE_DELTA = 1.0


@pytest.fixture(scope="module")
def spectrum():
    return bdg_diagonalize(BRIDGE_N, 1.0)


@pytest.fixture(scope="module")
def kappa_lat(spectrum):
    cov = thermal_covariance(spectrum, 50.0 * BRIDGE_N)
    center = (BRIDGE_N - 1) // 2
    seps = np.arange(10.0, 51.0, 2.0)
    cs = [connected_xx(cov, center, center - int(s)) for s in seps]
    return fit_kappa(seps, cs, BRIDGE_DELTA)


class TestLatticeBridge:
    """Critical-chain correlators against the continuum forms.

    The chain has velocity 2, so a lattice Gibbs state at beta maps onto
    unit-velocity continuum formulas at T = 1/(2 beta) with the lattice
    amplitude, or equivalently T = 1/beta with kappa/v^{2D}.
    """

    N = BRIDGE_N
    DELTA = BRIDGE_DELTA

    def test_critical_correlator_is_a_power_law(self, kappa_lat):
        assert kappa_lat.residual_rms < 0.02
        assert kappa_lat.kappa == pytest.approx(0.0999, rel=2e-2)

    def test_free_exponent_confirms_scaling_dimension(self, spectrum):
        cov = thermal_covariance(spectrum, 50.0 * self.N)
        center = (self.N - 1) // 2
        seps = np.arange(10.0, 51.0, 2.0)
        cs = [connected_xx(cov, center, center - int(s)) for s in seps]
        fit = fit_kappa(seps, cs, self.DELTA, free_exponent=True)
        assert fit.slope == pytest.approx(-2.0, abs=0.2)

    def test_thermal_energy_coefficient(self, spectrum, kappa_lat):
        """The environment coefficient measured on the lattice carries the
        h/2 spectral-sum coefficient, not the 2^{2D+1}-larger closed form."""
        beta = 60.0
        t_eff = 1.0 / (2.0 * beta)
        measured = chi2_E_quadratic(spectrum, beta, (self.N - 1) // 2).value
        direct = (
            kappa_lat.kappa
            * (h_delta(self.DELTA) / 2.0)
            * (math.pi * t_eff) ** (2 * self.DELTA)
        )
        assert measured == pytest.approx(direct, rel=0.04)
        printed = chi2_E_cft(CftParams(self.DELTA, kappa_lat.kappa, t_eff))
        assert printed / direct == pytest.approx(2.0 ** (2 * self.DELTA + 1), rel=1e-12)

    def test_equal_time_thermal_correlator_form(self, spectrum, kappa_lat):
        """<XX>_c at warm beta follows kappa (pi T / sinh(pi T x))^{2D}."""
        beta = 50.0
        t_eff = 1.0 / (2.0 * beta)
        cov = thermal_covariance(spectrum, beta)
        center = (self.N - 1) // 2
        for x in (10, 20, 40):
            got = connected_xx(cov, center, center - x)
            want = kappa_lat.kappa * (
                math.pi * t_eff / math.sinh(math.pi * t_eff * x)
            ) ** (2 * self.DELTA)
            assert got == pytest.approx(want, rel=0.05)
