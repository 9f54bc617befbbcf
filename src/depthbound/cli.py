"""Batch driver for depth-bound computations.

Subcommands
-----------
* ``bound`` — one criterion evaluation and verdict record.
* ``scan`` — a (beta, x) grid swept into a CSV dataset plus a JSON sidecar.
* ``fig2`` — the standard g ∈ {0.5, 1.0, 1.5} ratio/depth datasets.
* ``selftest`` — condensed oracle and property suites (``depthbound.checks``).

The dense backend measures projectively or weakly on small chains; the
freefermion backend evaluates the weak-X second-order proxy at n ≈ 300;
the cft backend evaluates the continuum closed forms (unit-velocity units),
fitting the two-point amplitude from lattice data rather than hardcoding it.

``OPTIONS`` states what each option accepts, and ``EXCLUSIVE`` which pairs
exclude each other; flags, config-file keys and ``DEPTHBOUND_THREADS`` are
checked against them in one pass.  ``bound`` evaluates one point of a scan,
through the same backend contexts, region-B check and writers.

Exit codes: 0 success, 2 configuration error, 3 backend-capability error
(including running out of memory; reported before configuration errors),
4 numerical-consistency failure (a library tolerance gate, raised as
``NumericalConsistencyError``).  Output floats are printed
with 12 significant digits and a fixed row order (beta outer, x inner), so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import approx_verdict, invert_k, k_func
from .cft import CftParams, chi2_E_cft, depth_bound_cft, c_constant, fit_kappa, k2_cft
from .fermion import (
    XLineTable,
    bdg_diagonalize,
    connected_xx,
    ground_state_covariance,
    thermal_covariance,
    x_expectation,
)
from .models import SpinHamiltonian, ThermalEigensystem, build_tfim
from .perturbative import chi2_E_eigenbasis, chi2_E_spectral, chi2_system, correlator_lb_value
from .purification import MeasurementSpec, projective_chi_B, projective_chi_E_factors
from .states import (
    DENSE_QUBIT_CAP,
    NumericalConsistencyError,
    entropy_from_spectrum,
    von_neumann_entropy,
)

COLUMNS = (
    "beta",
    "g",
    "n",
    "x_ab",
    "chi_B",
    "chi_E",
    "ratio",
    "criterion",
    "threshold",
    "epsilon",
    "depth_lb",
    "backend",
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

#: Spin velocity of the chain normalization H = -sum(ZZ + gX) at criticality;
#: used only when translating lattice data into continuum parameters.
LATTICE_VELOCITY = 2.0

#: Scaling dimension of the probe in the cft backend's closed forms.
CFT_DELTA = 1.0


class ConfigError(Exception):
    """Invalid or inconsistent configuration (exit code 2)."""


class CapabilityError(Exception):
    """Requested combination unsupported by the chosen backend (exit code 3)."""


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return "%d" % int(value)
    return "%.12g" % float(value)


#: The most points a grid, and the most rows a scan or fig2 run, may hold.
MAX_POINTS = 10**6


def _check_count(count: float, what: str) -> None:
    if count > MAX_POINTS:
        raise ConfigError(f"{count} {what} exceed the limit of {MAX_POINTS}")


def _parse_grid(text: str) -> list[float]:
    """Parse '1,2,3' or 'start:stop[:step]' (inclusive stop) grids; a range
    is counted before it is built."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
        else:
            parts = [float(p) for p in text.split(",") if p.strip()]
        if not all(math.isfinite(p) for p in parts):
            raise ValueError("grid values must be finite")
        if ":" not in text:
            values = parts
        elif len(parts) > 3:
            raise ValueError("too many ':' fields")
        else:
            start, stop, step = parts if len(parts) == 3 else (*parts, 1.0)
            if step <= 0 or stop < start:
                raise ValueError("need start <= stop and step > 0")
            span = (stop - start) / step + 1e-9
            count = math.floor(span) + 1 if math.isfinite(span) else math.inf
            _check_count(count, f"points in grid {text!r}")
            values = [start + i * step for i in range(count)]
        if not values:
            raise ValueError("empty grid")
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from None
    _check_count(len(values), f"points in grid {text!r}")
    return values


def _x_grid(text: str) -> list[int]:
    """A grid of integer distances."""
    values = _parse_grid(text)
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ConfigError(f"grid value {v} is not an integer")
    return [int(round(v)) for v in values]


def _parse_sites(text: str) -> tuple[int, ...]:
    try:
        sites = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"cannot parse site list {text!r}") from None
    if not sites:
        raise ConfigError("empty site list")
    return sites


def _parse_terms(raw: dict[str, str]) -> tuple[tuple[float, tuple[tuple[int, str], ...]], ...]:
    """Custom Hamiltonian terms: each value like '-1.0 Z0 Z1' or '0.5 X2'."""
    terms = []
    for key in sorted(raw):
        tokens = raw[key].split()
        if len(tokens) < 2:
            raise ConfigError(f"term {key!r} needs a coefficient and at least one Pauli")
        try:
            coeff = float(tokens[0])
            if not math.isfinite(coeff):
                raise ValueError
        except ValueError:
            raise ConfigError(f"term {key!r}: bad coefficient {tokens[0]!r}, not a finite number") from None
        ops = []
        for tok in tokens[1:]:
            letter = tok[0].upper()
            if letter not in ("X", "Y", "Z") or not tok[1:].isdigit():
                raise ConfigError(f"term {key!r}: bad Pauli token {tok!r}")
            ops.append((int(tok[1:]), letter))
        terms.append((coeff, tuple(ops)))
    return tuple(terms)


def _load_config_file(path: str) -> tuple[dict[str, str], dict[str, str]]:
    """Flat key=value sections; returns (flag values, custom terms)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    flags: dict[str, str] = {}
    terms: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if section.lower() == "terms":
                terms[key] = value
            else:
                flags[key.replace("_", "-")] = value
    return flags, terms


BACKENDS = ("dense", "freefermion", "cft")
_RUNS = ("bound", "scan", "fig2")


class Option(NamedTuple):
    """One option of the subcommands: a long flag and a config-file key,
    parsed and checked alike.  Every number it holds (each grid value, for
    a grid's text) must be finite and lie in [low, high]; a command or a
    backend given an option it does not read exits 2."""

    name: str
    kind: type
    commands: tuple[str, ...]
    help: str
    choices: tuple[str, ...] | None = None
    low: float = -math.inf
    high: float = math.inf
    backends: tuple[str, ...] = BACKENDS
    parse: Callable[[str], list] | None = None  # the numbers in a text value


OPTIONS = (
    Option("model", str, _RUNS, "Hamiltonian family", choices=("tfim", "custom")),
    Option("n", int, _RUNS, "number of chain sites", low=2),
    Option("g", float, ("bound", "scan"), "transverse field strength"),
    Option("beta", float, ("bound", "scan"), "single inverse temperature", low=0.0),
    Option("beta-grid", str, ("scan", "fig2"), "inverse-temperature grid: a,b,c or start:stop[:step]",
           low=0.0, parse=_parse_grid),
    Option("x-grid", str, _RUNS, "A-B distance grid (integers)", low=1, parse=_x_grid),
    Option("backend", str, _RUNS, "compute backend", choices=BACKENDS),
    Option("measure", str, ("bound", "scan"), "measurement family", choices=("projective-x", "weak-x")),
    Option("site", int, _RUNS, "measured site (default: chain center)", backends=("dense", "freefermion")),
    Option("region-b", str, ("bound",), "explicit region-B site list (dense bound only)",
           backends=("dense",)),
    Option("epsilon", float, ("bound", "scan"), "preparation error epsilon", low=0.0, high=1.0),
    # k is inverted with d_A' = 2 (a qubit flag register), so k(1) caps it.
    Option("k-eps", float, _RUNS, "threshold k(eps); inverted to epsilon", low=0.0, high=k_func(1.0, 2)),
    Option("out", str, _RUNS, "output file path (scan/fig2) or record destination"),
    Option("format", str, ("bound", "scan"), "output format (default csv)", choices=("csv", "json")),
    Option("threads", int, _RUNS, "worker threads (default 1)", low=1),
    Option("seed", int, ("selftest",), "seed for randomized suites", low=0),
)

#: Pairs of options that exclude each other.
EXCLUSIVE = (("epsilon", "k-eps"), ("beta", "beta-grid"), ("x-grid", "region-b"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthbound",
        description="Correlation-based lower bounds on mixed-state preparation depth.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("bound", "compute a single criterion/verdict record"),
        ("scan", "sweep a (beta, x) grid into a CSV dataset"),
        ("fig2", "emit the standard ratio/depth datasets"),
        ("selftest", "run condensed oracle and property suites"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="INI-style config file; flags override its keys")
        for option in OPTIONS:
            p.add_argument("--" + option.name, type=option.kind, choices=option.choices, help=option.help)
    return parser


def _typed(option: Option, raw: str, source: str):
    """A text value (config key or environment) with its flag's type and choices."""
    try:
        value = option.kind(raw)
    except ValueError:
        raise ConfigError(f"{source}: bad value {raw!r}") from None
    if option.choices is not None and value not in option.choices:
        raise ConfigError(f"{source}: {raw!r} is not one of {', '.join(option.choices)}")
    return value


def _merged_options(args: argparse.Namespace) -> tuple[dict, dict[str, str]]:
    """Merge config-file keys with CLI flags (flags win); file values get the
    flags' type and choices."""
    file_flags: dict[str, str] = {}
    terms: dict[str, str] = {}
    if args.config:
        file_flags, terms = _load_config_file(args.config)
    unknown = set(file_flags) - {option.name for option in OPTIONS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged: dict = {}
    for option in OPTIONS:
        if option.name in file_flags:
            merged[option.name] = _typed(option, file_flags[option.name], f"config key {option.name!r}")
        cli_value = getattr(args, option.name.replace("-", "_"))
        if cli_value is not None:
            merged[option.name] = cli_value
    return merged, terms


def _check_value(option: Option, value, source: str) -> None:
    """Every number in ``value`` must be finite and within the option's bounds."""
    numbers = option.parse(value) if option.parse else [] if option.kind is str else [value]
    for number in numbers:
        if not math.isfinite(number):
            raise ConfigError(f"{source} = {number:g} is not finite")
        if not option.low <= number <= option.high:
            raise ConfigError(f"{source} = {number:g} lies outside [{option.low:.6g}, {option.high:.6g}]")


def _check_options(command: str, opts: dict, terms: dict[str, str]) -> None:
    """Check the merged options and DEPTHBOUND_THREADS against OPTIONS and
    EXCLUSIVE (exit 2): each option must be read by the command and the
    backend, and its numbers must lie within the option's bounds.  Custom
    terms are read by the custom model only."""
    if terms and opts.get("model") != "custom":
        raise ConfigError("the config file's [terms] section defines a custom model; it needs model = custom")
    backend = opts.get("backend", "dense")
    for option in OPTIONS:
        if option.name not in opts:
            continue
        if command not in option.commands:
            raise ConfigError(f"{command} does not read --{option.name}")
        if backend not in option.backends:
            raise ConfigError(f"the {backend} backend does not read --{option.name}")
        _check_value(option, opts[option.name], "--" + option.name)
    for first, second in EXCLUSIVE:
        if first in opts and second in opts:
            raise ConfigError(f"give either --{first} or --{second}, not both")
    env = os.environ.get("DEPTHBOUND_THREADS")
    threads = next(option for option in OPTIONS if option.name == "threads")
    if env is not None and command in threads.commands:
        _check_value(threads, _typed(threads, env, "DEPTHBOUND_THREADS"), "DEPTHBOUND_THREADS")


def _betas(opts: dict) -> list[float]:
    """The --beta-grid values, or the single --beta."""
    if "beta-grid" in opts:
        return _parse_grid(opts["beta-grid"])
    if "beta" not in opts:
        raise ConfigError("--beta or --beta-grid is required")
    return [float(opts["beta"])]


def _check_cft_betas(opts: dict) -> None:
    """The cft closed forms are written in the temperature 1/beta, and they
    raise both 2 pi/beta and beta to the power 2 Delta: each beta must keep
    both finite, which rules out beta = 0 too (exit 2)."""
    limit = sys.float_info.max ** (0.5 / CFT_DELTA)
    for beta in _betas(opts):
        if not (beta <= limit and 2.0 * math.pi <= beta * limit):
            raise ConfigError(
                f"cft backend: beta = {beta:g} overflows the closed forms "
                f"(need {2.0 * math.pi / limit:.4g} <= beta <= {limit:.4g})"
            )


def _epsilon(opts: dict, k_default: float | None = None) -> float:
    """--epsilon, or --k-eps (else ``k_default``) inverted with d_A' = 2 (a qubit flag)."""
    k_eps = opts.get("k-eps", k_default)
    if k_eps is not None:
        return float(invert_k(float(k_eps), 2))
    return float(opts.get("epsilon", 0.0))


def _threads(opts: dict) -> int:
    """DEPTHBOUND_THREADS, else --threads, else 1."""
    return int(os.environ.get("DEPTHBOUND_THREADS", opts.get("threads", 1)))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CapabilityError(message)


def _center_site(n: int) -> int:
    return (n - 1) // 2


def _probe_site(opts: dict, n: int) -> int:
    """The measured site: --site, or the chain center; must lie on the chain."""
    site = int(opts.get("site", _center_site(n)))
    if not 0 <= site < n:
        raise ConfigError(f"--site {site} lies outside the chain [0, {n})")
    return site


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


def _point(opts: dict) -> int | tuple[int, ...] | None:
    """bound's point: the --region-b sites or the one --x-grid distance.
    Only the cft backend has a row without one: the closed-form depth."""
    if "region-b" in opts:
        return _parse_sites(opts["region-b"])
    xs = _x_grid(opts["x-grid"]) if "x-grid" in opts else []
    if len(xs) > 1 or (not xs and opts.get("backend") != "cft"):
        raise ConfigError(f"bound reads one point, --region-b or one --x-grid distance, not {len(xs)}")
    return xs[0] if xs else None


def _tfim_chain(opts: dict) -> tuple[int, float]:
    """(n, g) of the tfim chain; both are required."""
    for key in ("n", "g"):
        if opts.get(key) is None:
            raise ConfigError(f"--{key} is required for the tfim model")
    return int(opts["n"]), float(opts["g"])


def _build_hamiltonian(opts: dict, terms_raw: dict[str, str]) -> SpinHamiltonian:
    model = opts.get("model", "tfim")
    if model == "tfim":
        return build_tfim(*_tfim_chain(opts))
    if not terms_raw:
        raise ConfigError("custom model needs a [terms] section in the config file")
    terms = _parse_terms(terms_raw)
    n = opts.get("n")
    if n is None:
        n = 1 + max(site for _, ops in terms for site, _ in ops)
        _require(n <= DENSE_QUBIT_CAP, f"dense backend capped at {DENSE_QUBIT_CAP} sites")
    try:
        return SpinHamiltonian(int(n), terms)
    except ValueError as exc:
        raise ConfigError(f"custom model: {exc}") from None


# Each backend has a model, its beta-independent setup built once per command,
# and a per-beta context made by ``model.context(beta, epsilon)``.  A model
# carries the ``backend``, ``g`` and ``n`` columns of its rows; a context
# carries ``beta``, ``chi_e``, ``at(point) -> (x_ab, chi_b)`` for a point
# (a grid distance x, or for the dense backend the --region-b sites),
# ``verdict(chi_b, x_ab)``, and ``extras()``, the bound record's extra values.
# The dense and freefermion contexts give ``chi_b(region, nearest, grid)``,
# with ``nearest`` the site of B closest to the probe and ``grid`` true for a
# grid distance, and share ``_Context.at``; the cft context has its own ``at``.


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


class _DenseModel:
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
            self.spec = MeasurementSpec.projective(PAULI_X, (site,))
        else:
            self.x_blocks = self.eig.rotate_x(site)

    def context(self, beta: float, epsilon: float) -> "_DenseContext":
        return _DenseContext(self, beta, epsilon)


class _DenseContext(_Context):
    """chi_E and chi_B from the eigensystem's sector blocks, with no Gibbs
    state: chi_E from the Gibbs weights and the rotated or projected probe,
    chi_B from the marginal on the probe site and region B.  With the probe
    at or left of the chain centre, every grid point's marginal is a partial
    trace of one marginal on the probe and all sites left of it, formed once
    per beta at the first grid point.  The Gibbs-state and purification
    routes they equal are cross-checked in the tests."""

    def __init__(self, model: _DenseModel, beta: float, epsilon: float):
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
        return chi2_system(rho, PAULI_X, (model.site,), region).value

    def extras(self) -> dict:
        """S of the last point's region B, and of the whole Gibbs state."""
        region, rho = self.last
        return {"s_b": float(von_neumann_entropy(rho.reduced(region))), "s_abc": self.entropy}

    def verdict(self, chi_b: float, x_ab):
        weak = self.model.measure == "weak-x"  # projective-x: k(eps) of a qubit outcome register
        return approx_verdict(chi_b - self.chi_e, x_ab, self.epsilon, d_aprime=2, weak=weak)


class _FermionModel:
    """One Bogoliubov spectrum of the tfim chain, the probe site, and the
    probe's weak-X line table, which every beta reweights for chi_E."""

    backend = "freefermion"

    def __init__(self, n: int, g: float, site: int):
        self.n = n
        self.g = g
        self.site = site
        self.spectrum = bdg_diagonalize(n, g)
        self.lines = XLineTable(self.spectrum, site)

    def context(self, beta: float, epsilon: float) -> "_FermionContext":
        return _FermionContext(self, beta, epsilon)


class _FermionContext(_Context):
    """chi_B is the correlator lower bound with the nearest site of region B.
    Region B lies left of the probe, so only the covariance of the sites up
    to the probe is formed."""

    def __init__(self, model: _FermionModel, beta: float, epsilon: float):
        super().__init__(model, beta, epsilon)
        self.cov = thermal_covariance(model.spectrum, beta, prefix=model.site + 1)
        lines = model.lines
        self.chi_e = chi2_E_spectral((lines.frequencies, lines.weights(beta)), beta).value

    def chi_b(self, region: tuple[int, ...], nearest: int, grid: bool) -> float:
        return correlator_lb_value(connected_xx(self.cov, self.model.site, nearest), x_expectation(self.cov, nearest))


_KAPPA_CACHE: dict[tuple[int, float], float] = {}


def _fit_lattice_kappa(n: int, g: float) -> float:
    """Two-point amplitude of the X correlator from ground-state data."""
    key = (n, g)
    if key not in _KAPPA_CACHE:
        cov = ground_state_covariance(n, g)
        center = _center_site(n)
        seps = np.arange(10, min(51, center))
        cors = np.array([connected_xx(cov, center, center - int(s)) for s in seps])
        try:
            _KAPPA_CACHE[key] = fit_kappa(seps, cors, 1.0).kappa
        except NumericalConsistencyError:
            raise
        except ValueError as exc:
            raise ConfigError(f"cft backend cannot fit the amplitude on an n = {n} chain: {exc}") from None
    return _KAPPA_CACHE[key]


class _CftModel:
    """Continuum closed forms (unit-velocity units) with an amplitude fitted
    from lattice data on an ``n_fit``-site chain; rows print n = 0."""

    backend = "cft"
    n = 0

    def __init__(self, n_fit: int, g: float):
        _require(abs(g - 1.0) < 1e-12, "cft backend is defined at the critical point g = 1")
        self.g = g
        self.kappa = _fit_lattice_kappa(n_fit, g) / LATTICE_VELOCITY ** (2.0 * CFT_DELTA)

    def context(self, beta: float, epsilon: float) -> "_CftContext":
        return _CftContext(self, beta, epsilon)


class _CftContext(_Context):
    def __init__(self, model: _CftModel, beta: float, epsilon: float):
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


def _build_model(opts: dict, terms_raw: dict[str, str], measure: str):
    """The chosen backend's model; ``measure`` is the dense probe."""
    backend = opts.get("backend", "dense")
    if backend == "cft":
        return _CftModel(int(opts.get("n", 301)), float(opts.get("g", 1.0)))
    if backend == "freefermion":
        n, g = _tfim_chain(opts)
        return _FermionModel(n, g, _probe_site(opts, n))
    ham = _build_hamiltonian(opts, terms_raw)
    return _DenseModel(ham, measure, _probe_site(opts, ham.n_sites), float(opts.get("g", 0.0)))


def _check_capabilities(opts: dict) -> None:
    backend = opts.get("backend", "dense")
    measure = opts.get("measure")
    model = opts.get("model", "tfim")
    if backend == "dense":
        n = opts.get("n")
        if n is not None:
            _require(int(n) <= DENSE_QUBIT_CAP, f"dense backend capped at {DENSE_QUBIT_CAP} sites")
    elif backend == "freefermion":
        _require(model == "tfim", "freefermion backend supports only the tfim model")
        _require(measure in (None, "weak-x"), "freefermion backend supports only weak-x measurement")
    elif backend == "cft":
        _require(model == "tfim", "cft backend is parameterized by the critical tfim chain")
        _require(measure in (None, "weak-x"), "cft backend models the weak-x family only")


# ---------------------------------------------------------------------------
# Row assembly
# ---------------------------------------------------------------------------


def _row(ctx: _Context, x_ab, chi_b: float) -> list:
    verdict = ctx.verdict(chi_b, x_ab)
    ratio = chi_b / ctx.chi_e if ctx.chi_e > 0 else float("nan")
    return [
        ctx.beta,
        ctx.model.g,
        ctx.model.n,
        x_ab,
        chi_b,
        ctx.chi_e,
        ratio,
        verdict.criterion_value,
        verdict.threshold,
        verdict.epsilon,
        verdict.depth_lower_bound,
        ctx.model.backend,
    ]


def _beta_rows(model, beta: float, xs: list[int], epsilon: float):
    """Rows and per-row errors for one beta (deterministic inner order);
    a failed row keeps its grid x."""
    ctx = model.context(beta, epsilon)
    rows: list[list] = []
    errors: list[str | None] = []
    for x in xs:
        try:
            rows.append(_row(ctx, *ctx.at(x)))
            errors.append(None)
        except (ValueError, ConfigError) as exc:
            rows.append([beta, model.g, model.n, x] + [float("nan")] * 7 + [model.backend])
            errors.append(str(exc))
    return rows, errors


def _pool_map(workers: int, fn, items) -> list:
    """``[fn(item) for item in items]``, on a thread pool when workers > 1."""
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _grid_rows(model, betas: list[float], xs: list[int], epsilon: float, workers: int):
    """Rows and per-row errors of the (beta, x) grid, beta outer, with the
    betas spread over ``workers`` threads."""
    results = _pool_map(workers, lambda beta: _beta_rows(model, beta, xs, epsilon), betas)
    return [row for r, _ in results for row in r], [err for _, e in results for err in e]


def _csv(rows: list[list], errors: list[str | None] | None = None,
         columns: tuple[str, ...] = COLUMNS) -> str:
    """CSV rows under ``columns``, plus an error column when a row failed."""
    errors = errors or [None] * len(rows)
    has_errors = any(e is not None for e in errors)
    lines = [", ".join(columns) + (", error" if has_errors else "")]
    for row, err in zip(rows, errors):
        cells = [_fmt(v) for v in row]
        if has_errors:
            cells.append("" if err is None else err.replace(",", ";"))
        lines.append(", ".join(cells))
    return "\n".join(lines) + "\n"


def _json_value(v):
    """A row or record value in JSON: non-finite floats as their repr."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _sidecar(path: Path, opts: dict, elapsed: float, rows: int | list[dict], **extra) -> None:
    """The run's JSON record: resolved options, version, timing and ``rows``
    (a count beside a CSV, the rows themselves for ``scan --format json``)."""
    payload = {
        "config": {k: opts[k] for k in sorted(opts)},
        "version": __version__,
        "timing_seconds": round(elapsed, 6),
        "rows": rows,
        **extra,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_bound(opts: dict, terms_raw: dict[str, str]) -> int:
    if "beta" not in opts:
        raise ConfigError("--beta is required for bound")
    point = _point(opts)
    start = time.perf_counter()
    model = _build_model(opts, terms_raw, opts.get("measure", "projective-x"))
    ctx = model.context(float(opts["beta"]), _epsilon(opts))
    row = _row(ctx, *ctx.at(point))
    if opts.get("format", "csv") == "csv":
        text = _csv([row])
    else:
        record = dict(zip(COLUMNS, row), wall_time_seconds=round(time.perf_counter() - start, 6),
                      version=__version__, **ctx.extras())
        if "k-eps" in opts:
            record["k_eps"] = float(opts["k-eps"])
        text = json.dumps({k: _json_value(v) for k, v in record.items()}, indent=2, sort_keys=True) + "\n"
    if "out" in opts:
        Path(opts["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scan(opts: dict, terms_raw: dict[str, str]) -> int:
    if "out" not in opts:
        raise ConfigError("scan requires --out")
    if opts.get("n") is None:
        if opts.get("backend") == "cft":
            opts["n"] = 301  # continuum rows; n only sizes the amplitude fit
        else:
            raise ConfigError("scan requires --n")
    epsilon = _epsilon(opts)
    betas = _betas(opts)
    if "x-grid" not in opts:
        raise ConfigError("scan requires --x-grid")
    xs = _x_grid(opts["x-grid"])
    _check_count(len(betas) * len(xs), "scan rows")
    start = time.perf_counter()
    model = _build_model(opts, terms_raw, opts.get("measure", "weak-x"))
    rows, errors = _grid_rows(model, betas, xs, epsilon, _threads(opts))
    out = Path(opts["out"])
    elapsed = time.perf_counter() - start
    if opts.get("format", "csv") == "json":
        records = [{k: _json_value(v) for k, v in zip(COLUMNS, row)} | ({"error": err} if err else {})
                   for row, err in zip(rows, errors)]
        _sidecar(out, opts, elapsed, records)
    else:
        out.write_text(_csv(rows, errors))
        _sidecar(out.with_suffix(".json"), opts, elapsed, len(rows))
    return 0


def _cmd_fig2(opts: dict, terms_raw: dict[str, str]) -> int:
    if "out" not in opts:
        raise ConfigError("fig2 requires --out (dataset stem)")
    n = int(opts.get("n", 301))
    betas = _parse_grid(opts["beta-grid"]) if "beta-grid" in opts else [10.0 * i for i in range(1, 11)]
    xs = _x_grid(opts["x-grid"]) if "x-grid" in opts else list(range(1, 61))
    eps_approx = _epsilon(opts, k_default=1e-5)
    gs = (0.5, 1.0, 1.5)
    _check_count(len(gs) * len(betas) * len(xs), "fig2 rows")
    site = _probe_site(opts, n)
    start = time.perf_counter()

    def g_task(g: float):
        # The task builds its model, so that a worker holds one model at a time.
        model = _FermionModel(n, g, site)
        rows, errors = _grid_rows(model, betas, xs, 0.0, 1)
        depth_rows = []
        for i, beta in enumerate(betas):
            block = slice(i * len(xs), (i + 1) * len(xs))
            clean = [dict(zip(COLUMNS, row)) for row, err in zip(rows[block], errors[block]) if err is None]
            for eps in (0.0, eps_approx):
                depths = [approx_verdict(r["criterion"], r["x_ab"], eps, weak=True).depth_lower_bound
                          for r in clean]
                depth_rows.append([beta, g, n, eps, max(depths, default=0), model.backend])
        return rows, errors, depth_rows

    per_g = _pool_map(_threads(opts), g_task, gs)
    ratio_rows = [row for rr, _, _ in per_g for row in rr]
    ratio_errors = [err for _, er, _ in per_g for err in er]
    depth_rows = [row for _, _, dr in per_g for row in dr]
    stem = Path(opts["out"])
    (stem.parent / (stem.name + "_ratio.csv")).write_text(_csv(ratio_rows, ratio_errors))
    depth_columns = ("beta", "g", "n", "epsilon", "depth_lb", "backend")
    (stem.parent / (stem.name + "_depth.csv")).write_text(_csv(depth_rows, columns=depth_columns))
    _sidecar(stem.parent / (stem.name + ".json"), opts, time.perf_counter() - start, len(ratio_rows))
    return 0


def _cmd_selftest(opts: dict) -> int:
    from .checks import selftest

    return selftest(int(opts.get("seed", 0)))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts: dict = {}
    try:
        opts, terms_raw = _merged_options(args)
        if args.command == "fig2":
            backend = opts.setdefault("backend", "freefermion")
            _require(backend == "freefermion", "fig2 is a freefermion pipeline")
            opts.setdefault("model", "tfim")
        _check_capabilities(opts)
        _check_options(args.command, opts, terms_raw)
        if opts.get("backend") == "cft":
            _check_cft_betas(opts)
        if args.command == "bound":
            return _cmd_bound(opts, terms_raw)
        if args.command == "scan":
            return _cmd_scan(opts, terms_raw)
        if args.command == "fig2":
            return _cmd_fig2(opts, terms_raw)
        return _cmd_selftest(opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        # The dense backend's arrays grow as 4^n; name the size that did not fit.
        size = f" at n = {opts['n']}" if opts.get("n") is not None else ""
        dense = "; the dense backend needs O(4^n) memory" if opts.get("backend", "dense") == "dense" else ""
        print(f"capability error: out of memory{size}{dense}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
