"""Row evaluation of the three backends: (beta, epsilon, point) to chi_E,
chi_B and a verdict.

Each backend has a model (``DenseModel``, ``FermionModel``, ``CftModel``),
its beta-independent setup built once, and a per-beta context made by
``model.context(beta, epsilon)``.  A model carries the ``backend``, ``g``
and ``n`` columns of its rows; a context carries ``beta``, ``chi_e``,
``at(point) -> (x_ab, chi_b)`` for a point (a grid distance x, or for the
dense backend a tuple of region-B sites), ``verdict(chi_b, x_ab)``, and
``extras()``, the bound record's extra values.  The dense and freefermion
contexts give ``chi_b(region, nearest, grid)``, with ``nearest`` the site of
B closest to the probe and ``grid`` true for a grid distance, and share
``_Context.at``; the cft context has its own ``at``.  An invalid point raises
``ConfigError`` and an unsupported request ``CapabilityError``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bounds import approx_verdict
from .cft import CftParams, chi2_E_cft, depth_bound_cft, c_constant, fit_kappa, k2_cft
from .fermion import (
    bdg_diagonalize,
    chi2_E_quadratic,
    connected_xx,
    ground_state_covariance,
    thermal_covariance,
    x_expectation,
)
from .models import PAULI, SpinHamiltonian, ThermalEigensystem
from .perturbative import chi2_E_eigenbasis, chi2_system, correlator_lb_value
from .purification import MeasurementSpec, projective_chi_B, projective_chi_E_factors
from .states import NumericalConsistencyError, entropy_from_spectrum, von_neumann_entropy


class ConfigError(Exception):
    """Invalid or inconsistent configuration (exit code 2)."""


class CapabilityError(Exception):
    """Requested combination unsupported by the chosen backend (exit code 3)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CapabilityError(message)


def _center_site(n: int) -> int:
    return (n - 1) // 2


def _region_b(n: int, site: int, point: int | tuple[int, ...]) -> tuple[int, ...]:
    """Region B of a point: for a grid distance x, the sites 0 … site - x,
    each at least x left of the probe ``site`` (at the centre probe, the
    fig.-2 prefix of (n+1)//2 - x sites); otherwise the given sites, which
    must be distinct sites of the chain.  The probe must lie outside B."""
    if isinstance(point, int):
        region = tuple(range(site - point + 1))
        if not region:
            raise ConfigError(f"x = {point} leaves region B empty left of site {site}")
    else:
        region = point
        if len(set(region)) != len(region) or not all(0 <= s < n for s in region):
            raise ConfigError(f"region B {region} must hold distinct sites of the chain [0, {n})")
    if site in region:
        raise ConfigError(f"measured site {site} must lie outside region B")
    return region


class _Context:
    """Per-(model, beta) state shared across the x grid; the weak-x verdict."""

    chi_e: float

    def __init__(self, model, beta: float, epsilon: float):
        self.model = model
        self.beta = beta
        self.epsilon = epsilon

    def at(self, point: int | tuple[int, ...]) -> tuple[int, float]:
        """x_AB, the distance from the probe to region B, and chi_B."""
        site = self.model.site
        region = _region_b(self.model.n, site, point)
        if isinstance(point, int):
            nearest = site - point  # the last site of the prefix B
        else:
            nearest = min(region, key=lambda s: abs(site - s))
        return abs(site - nearest), self.chi_b(region, nearest, isinstance(point, int))

    def verdict(self, chi_b: float, x_ab):
        return approx_verdict(chi_b - self.chi_e, x_ab, self.epsilon, weak=True)

    def extras(self) -> dict:
        return {}


class DenseModel:
    """Model-level dense setup: one eigendecomposition of H, and the probe
    as projectors (projective-x) or as the blocks of X_site in the
    eigenbasis, one per parity sector (weak-x)."""

    backend = "dense"

    def __init__(self, ham: SpinHamiltonian, measure: str, site: int, g: float = 0.0):
        self.measure = measure
        self.site = site
        self.g = g
        self.n = ham.n_sites
        self.eig = ThermalEigensystem.of(ham)
        if measure == "projective-x":
            self.spec = MeasurementSpec.projective(PAULI["X"], (site,))
        else:
            self.x_blocks = self.eig.rotate_x(site)

    def context(self, beta: float, epsilon: float) -> "DenseContext":
        return DenseContext(self, beta, epsilon)


class DenseContext(_Context):
    """chi_E and chi_B from the eigensystem's sector blocks, with no Gibbs
    state: chi_E from the Gibbs weights and the rotated or projected probe,
    chi_B from the marginal on the probe site and region B.  With the probe
    at or left of the chain centre, every grid point's marginal is a partial
    trace of one marginal on the probe and all sites left of it, formed once
    per beta at the first grid point.  The Gibbs-state and purification
    routes they equal are cross-checked in the tests."""

    def __init__(self, model: DenseModel, beta: float, epsilon: float):
        super().__init__(model, beta, epsilon)
        eig = model.eig
        self.entropy = entropy_from_spectrum(eig.weights(beta))
        if model.measure == "projective-x":
            self.chi_e = projective_chi_E_factors(eig.projected_factors(beta, model.site), self.entropy)
        else:
            self.chi_e = chi2_E_eigenbasis(eig, beta, model.x_blocks).value
        self.prefix = None

    def chi_b(self, region: tuple[int, ...], nearest: int | None = None, grid: bool = False) -> float:
        """chi_B of all of ``region`` (``nearest`` is not read) from the Gibbs
        marginal on the probe site followed by ``region``; the two are kept
        for extras().

        For a grid point (``grid``, so ``region`` is a prefix of the sites
        left of the probe) with 2·site ≤ n − 1, that marginal is reduced from
        ``self.prefix``, the marginal on the probe followed by every site left
        of it.  Right of the centre the prefix marginal would cost more than
        the points it serves, and an explicit region forms its own.  The rule
        reads only (n, site), so a row's bits never depend on the rest of the
        grid."""
        model = self.model
        keep = (model.site,) + region
        if grid and 2 * model.site <= model.n - 1:
            if self.prefix is None:
                self.prefix = model.eig.marginal(self.beta, (model.site,) + tuple(range(model.site)))
            rho = self.prefix.reduced(keep)
        else:
            rho = model.eig.marginal(self.beta, keep)
        self.last = region, rho
        if model.measure == "projective-x":
            return projective_chi_B(rho, model.spec, region)
        return chi2_system(rho, PAULI["X"], (model.site,), region).value

    def extras(self) -> dict:
        """S of the last point's region B, and of the whole Gibbs state."""
        region, rho = self.last
        return {"s_b": float(von_neumann_entropy(rho.reduced(region))), "s_abc": self.entropy}

    def verdict(self, chi_b: float, x_ab):
        weak = self.model.measure == "weak-x"  # projective-x: k(eps) of a qubit outcome register
        return approx_verdict(chi_b - self.chi_e, x_ab, self.epsilon, d_aprime=2, weak=weak)


class FermionModel:
    """One Bogoliubov spectrum of the tfim chain and the probe site.  The
    spectrum keeps the energies and only the first 2·(site + 1) rows of Q:
    every beta reads the covariance of sites 0 … site and the probe's mode
    amplitudes, nothing further.  Every beta sums chi_E over the probe's
    weak-X lines term by term from the spectrum (``chi2_E_quadratic``), so
    no array with one entry per line outlives a beta."""

    backend = "freefermion"

    def __init__(self, n: int, g: float, site: int):
        self.n = n
        self.g = g
        self.site = site
        self.spectrum = bdg_diagonalize(n, g, rows=2 * (site + 1))

    def context(self, beta: float, epsilon: float) -> "FermionContext":
        return FermionContext(self, beta, epsilon)


class FermionContext(_Context):
    """chi_B is the correlator lower bound with the nearest site of region B.
    Region B lies left of the probe, so only the covariance of the sites up
    to the probe is formed."""

    def __init__(self, model: FermionModel, beta: float, epsilon: float):
        super().__init__(model, beta, epsilon)
        self.cov = thermal_covariance(model.spectrum, beta, prefix=model.site + 1)
        self.chi_e = chi2_E_quadratic(model.spectrum, beta, model.site).value

    def chi_b(self, region: tuple[int, ...], nearest: int, grid: bool) -> float:
        return correlator_lb_value(connected_xx(self.cov, self.model.site, nearest), x_expectation(self.cov, nearest))


#: Spin velocity of the chain normalization H = -sum(ZZ + gX) at criticality;
#: used only when translating lattice data into continuum parameters.
LATTICE_VELOCITY = 2.0

#: Scaling dimension of the probe in the cft backend's closed forms.
CFT_DELTA = 1.0

#: Chain length when none is given: the cft amplitude fit's chain and fig2's.
DEFAULT_N = 301

_KAPPA_CACHE: dict[tuple[int, float], float] = {}


def fit_lattice_kappa(n: int, g: float) -> float:
    """Two-point amplitude of the X correlator from ground-state data: the
    correlators of the centre with sites left of it, read from the
    covariance of sites 0 … centre alone."""
    key = (n, g)
    if key not in _KAPPA_CACHE:
        center = _center_site(n)
        cov = ground_state_covariance(n, g, prefix=center + 1)
        seps = np.arange(10, min(51, center))
        cors = np.array([connected_xx(cov, center, center - int(s)) for s in seps])
        try:
            _KAPPA_CACHE[key] = fit_kappa(seps, cors, 1.0).kappa
        except NumericalConsistencyError:
            raise
        except ValueError as exc:
            raise ConfigError(f"cft backend cannot fit the amplitude on an n = {n} chain: {exc}") from None
    return _KAPPA_CACHE[key]


class CftModel:
    """Continuum closed forms (unit-velocity units) with an amplitude fitted
    from lattice data on an ``n_fit``-site chain; rows print n = 0."""

    backend = "cft"
    n = 0

    def __init__(self, n_fit: int, g: float):
        _require(abs(g - 1.0) < 1e-12, "cft backend is defined at the critical point g = 1")
        self.g = g
        self.kappa = fit_lattice_kappa(n_fit, g) / LATTICE_VELOCITY ** (2.0 * CFT_DELTA)

    def context(self, beta: float, epsilon: float) -> "CftContext":
        return CftContext(self, beta, epsilon)


class CftContext(_Context):
    def __init__(self, model: CftModel, beta: float, epsilon: float):
        super().__init__(model, beta, epsilon)
        self.params = CftParams(CFT_DELTA, model.kappa, 1.0 / beta)
        self.chi_e = chi2_E_cft(self.params)

    def at(self, x: int | None) -> tuple[float, float]:
        """No distance (bound's closed-form row): no x_AB and no chi_B."""
        return (math.nan, math.nan) if x is None else (x, self.chi_e + k2_cft(self.params, float(x)))

    def verdict(self, chi_b: float, x_ab):
        """Without a distance, the depth is the closed form's."""
        verdict = super().verdict(chi_b, x_ab)
        if not math.isnan(x_ab):
            return verdict
        c = c_constant(CFT_DELTA, self.model.kappa)
        return replace(verdict, depth_lower_bound=depth_bound_cft(self.beta, self.epsilon, CFT_DELTA, c))

    def extras(self) -> dict:
        return {"kappa": self.model.kappa}
