"""Batch driver for depth-bound computations.

Subcommands
-----------
* ``bound`` — one criterion evaluation and verdict record.
* ``scan`` — a (beta, x) grid swept into a CSV dataset plus a JSON sidecar.
* ``fig2`` — the standard g ∈ {0.5, 1.0, 1.5} ratio/depth datasets.
* ``selftest`` — condensed oracle and property suites.

The dense backend measures projectively or weakly on small chains; the
freefermion backend evaluates the weak-X second-order proxy at n ≈ 300;
the cft backend evaluates the continuum closed forms (unit-velocity units),
fitting the two-point amplitude from lattice data rather than hardcoding it.

Exit codes: 0 success, 2 configuration error, 3 backend-capability error
(including running out of memory), 4 numerical-consistency failure.
``DEPTHBOUND_THREADS`` overrides ``--threads``.  Output floats are printed
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
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import approx_verdict, exact_verdict, invert_k, k_func
from .cft import CftParams, chi2_E_cft, depth_bound_cft, c_constant, fit_kappa, k2_cft
from .fermion import (
    XLineTable,
    bdg_diagonalize,
    connected_xx,
    thermal_covariance,
    x_expectation,
)
from .models import SpinHamiltonian, ThermalEigensystem, build_tfim
from .perturbative import chi2_E_eigenbasis, chi2_E_spectral, chi2_system, correlator_lb_value
from .purification import MeasurementSpec, projective_chi_B, projective_chi_E_factors
from .states import (
    DENSE_QUBIT_CAP,
    DensityOperator,
    NumericalConsistencyError,
    QubitGraph,
    entropy_from_spectrum,
    graph_distance,
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


def _parse_grid(text: str, *, integer: bool = False) -> list[float] | list[int]:
    """Parse '1,2,3' or 'start:stop[:step]' (inclusive stop) grids."""
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
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            values = [start + i * step for i in range(count)]
        if not values:
            raise ValueError("empty grid")
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from None
    if integer:
        out = []
        for v in values:
            if abs(v - round(v)) > 1e-9:
                raise ConfigError(f"grid value {v} is not an integer")
            out.append(int(round(v)))
        return out
    return values


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
        except ValueError:
            raise ConfigError(f"term {key!r}: bad coefficient {tokens[0]!r}") from None
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


#: The options of the subcommands, as (name, type, choices, commands that
#: read it, help).  Each one is a long flag and a config-file key, parsed and
#: checked alike; a command given an option it does not read exits 2.
OPTIONS = (
    ("model", str, ("tfim", "custom"), ("bound", "scan", "fig2"), "Hamiltonian family"),
    ("n", int, None, ("bound", "scan", "fig2"), "number of chain sites"),
    ("g", float, None, ("bound", "scan"), "transverse field strength"),
    ("beta", float, None, ("bound", "scan"), "single inverse temperature"),
    ("beta-grid", str, None, ("scan", "fig2"), "inverse-temperature grid: a,b,c or start:stop[:step]"),
    ("x-grid", str, None, ("bound", "scan", "fig2"), "A-B distance grid (integers)"),
    ("backend", str, ("dense", "freefermion", "cft"), ("bound", "scan", "fig2"), "compute backend"),
    ("measure", str, ("projective-x", "weak-x"), ("bound", "scan"), "measurement family"),
    ("site", int, None, ("bound", "scan", "fig2"), "measured site (default: chain center)"),
    ("region-b", str, None, ("bound",), "explicit region-B site list (dense bound only)"),
    ("epsilon", float, None, ("bound", "scan"), "preparation error epsilon"),
    ("k-eps", float, None, ("bound", "scan", "fig2"), "threshold k(eps); inverted to epsilon"),
    ("out", str, None, ("bound", "scan", "fig2"), "output file path (scan/fig2) or record destination"),
    ("format", str, ("csv", "json"), ("bound", "scan"), "output format (default csv)"),
    ("threads", int, None, ("bound", "scan", "fig2"), "worker threads (default 1)"),
    ("seed", int, None, ("selftest",), "seed for randomized suites"),
)


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
        for key, kind, choices, _, help_text in OPTIONS:
            p.add_argument("--" + key, type=kind, choices=choices, help=help_text)
    return parser


def _merged_options(args: argparse.Namespace) -> tuple[dict, dict[str, str]]:
    """Merge config-file keys with CLI flags (flags win); file values get the
    flags' type and choices."""
    file_flags: dict[str, str] = {}
    terms: dict[str, str] = {}
    if args.config:
        file_flags, terms = _load_config_file(args.config)
    unknown = set(file_flags) - {key for key, *_ in OPTIONS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged: dict = {}
    for key, kind, choices, _, _ in OPTIONS:
        if key in file_flags:
            raw = file_flags[key]
            try:
                merged[key] = kind(raw)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None
            if choices is not None and merged[key] not in choices:
                raise ConfigError(f"config key {key!r}: {raw!r} is not one of {', '.join(choices)}")
        cli_value = getattr(args, key.replace("-", "_"))
        if cli_value is not None:
            merged[key] = cli_value
    return merged, terms


def _epsilon_of_k(k_eps: float) -> float:
    """The epsilon with k(epsilon) = k_eps for d_A' = 2 (a qubit flag)."""
    top = k_func(1.0, 2)
    if not 0 <= k_eps <= top:
        raise ConfigError(f"--k-eps must lie in [0, k(1) = {top:.6g}]")
    return float(invert_k(float(k_eps), 2))


def _resolve_epsilon(opts: dict) -> tuple[float, float | None]:
    """Return (epsilon, k_eps or None), inverting --k-eps with d_A' = 2."""
    eps = opts.get("epsilon")
    k_eps = opts.get("k-eps")
    if eps is not None and k_eps is not None:
        raise ConfigError("give either --epsilon or --k-eps, not both")
    if k_eps is not None:
        return _epsilon_of_k(k_eps), float(k_eps)
    if eps is None:
        return 0.0, None
    if not 0 <= eps <= 1:
        raise ConfigError("--epsilon must lie in [0, 1]")
    return float(eps), None


def _check_values(opts: dict) -> None:
    """Range checks on resolved options that need no model (exit 2)."""
    betas = [opts["beta"]] if "beta" in opts else []
    if not all(math.isfinite(b) for b in betas):
        raise ConfigError("--beta must be finite")
    if any(b < 0 for b in betas):
        raise ConfigError("--beta must be non-negative")
    grid = _parse_grid(opts["beta-grid"]) if "beta-grid" in opts else []
    if any(b < 0 for b in grid):
        raise ConfigError("--beta-grid values must be non-negative")
    if opts.get("backend") == "cft":
        # The continuum forms are written in the temperature 1/beta, and they
        # raise both 2 pi/beta and beta to the power 2 Delta.
        if 0 in betas + grid:
            raise ConfigError("cft backend needs beta > 0")
        limit = sys.float_info.max ** (0.5 / CFT_DELTA)
        for beta in betas + grid:
            if not (beta <= limit and 2.0 * math.pi / beta <= limit):
                raise ConfigError(
                    f"cft backend: beta = {beta:g} overflows the closed forms "
                    f"(need {2.0 * math.pi / limit:.4g} <= beta <= {limit:.4g})"
                )
    if opts.get("model", "tfim") == "tfim" and opts.get("n", 2) < 2:
        raise ConfigError("the tfim chain needs --n >= 2")


def _check_applicable(command: str, opts: dict) -> None:
    """Reject options the command would ignore (exit 2)."""
    unread = [key for key, _, _, commands, _ in OPTIONS if key in opts and command not in commands]
    if unread:
        raise ConfigError(f"{command} does not read {', '.join('--' + key for key in unread)}")
    if "region-b" in opts and opts.get("backend", "dense") != "dense":
        raise ConfigError("--region-b applies only to a dense bound")


def _threads(opts: dict) -> int:
    env = os.environ.get("DEPTHBOUND_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"DEPTHBOUND_THREADS={env!r} is not an integer") from None
    else:
        value = int(opts.get("threads", 1))
    if value < 1:
        raise ConfigError("thread count must be at least 1")
    return value


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


def _region_b_for_distance(n: int, x: int) -> tuple[int, ...]:
    """Fig.-2 geometry: B is the first (n+1)//2 - x sites of the chain."""
    count = (n + 1) // 2 - x
    if count < 1:
        raise ConfigError(f"x = {x} leaves region B empty on an n = {n} chain")
    return tuple(range(count))


def _tfim_chain(opts: dict) -> tuple[int, float]:
    """(n, g) of the tfim chain; both are required."""
    n = opts.get("n")
    if n is None:
        raise ConfigError("--n is required for the tfim model")
    g = opts.get("g")
    if g is None:
        raise ConfigError("--g is required for the tfim model")
    return int(n), float(g)


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
# carries ``beta``, ``chi_e``, ``at(x) -> (x_ab, chi_b)`` for a grid distance
# x, and ``verdict(chi_b, x_ab)``.


class _Context:
    """Per-(model, beta) state shared across the x grid; the weak-x verdict."""

    chi_e: float

    def __init__(self, model, beta: float, epsilon: float):
        self.model = model
        self.beta = beta
        self.epsilon = epsilon

    def verdict(self, chi_b: float, x_ab):
        return approx_verdict(chi_b - self.chi_e, x_ab, self.epsilon, weak=True)


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
        self.graph = QubitGraph.path(self.n)
        self.eig = ThermalEigensystem.of(ham)
        if measure == "projective-x":
            self.spec = MeasurementSpec.projective(PAULI_X, (site,))
        else:
            self.x_blocks = self.eig.rotate_x(site)

    def context(self, beta: float, epsilon: float) -> "_DenseContext":
        return _DenseContext(self, beta, epsilon)

    def distance(self, region: tuple[int, ...]) -> int:
        return int(graph_distance(self.graph, (self.site,), region))


class _DenseContext(_Context):
    """chi_E and chi_B from the eigensystem's sector blocks, with no Gibbs
    state: chi_E from the Gibbs weights and the rotated or projected probe,
    chi_B from the marginal on the probe site and region B.  The Gibbs-state
    and purification routes they equal are cross-checked in the tests."""

    def __init__(self, model: _DenseModel, beta: float, epsilon: float):
        super().__init__(model, beta, epsilon)
        eig = model.eig
        self.entropy = entropy_from_spectrum(eig.weights(beta))
        if model.measure == "projective-x":
            self.chi_e = projective_chi_E_factors(eig.projected_factors(beta, model.site), self.entropy)
        else:
            self.chi_e = chi2_E_eigenbasis(eig, beta, model.x_blocks).value

    def marginal(self, region: tuple[int, ...]) -> DensityOperator:
        """The Gibbs marginal on the probe site followed by ``region``."""
        return self.model.eig.marginal(self.beta, (self.model.site,) + region)

    def chi_b(self, region: tuple[int, ...], rho: DensityOperator | None = None) -> float:
        """chi_B of ``region`` from its :meth:`marginal` ``rho``, formed here
        when not given."""
        rho = self.marginal(region) if rho is None else rho
        if self.model.measure == "projective-x":
            return projective_chi_B(rho, self.model.spec, region)
        return chi2_system(rho, PAULI_X, (self.model.site,), region).value

    def at(self, x: int) -> tuple[int, float]:
        region = _region_b_for_distance(self.model.n, x)
        return self.model.distance(region), self.chi_b(region)

    def verdict(self, chi_b: float, x_ab):
        if self.model.measure == "weak-x":
            return super().verdict(chi_b, x_ab)
        criterion = chi_b - self.chi_e
        if self.epsilon == 0.0:
            return exact_verdict(criterion, x_ab)
        return approx_verdict(criterion, x_ab, self.epsilon, d_aprime=self.model.spec.n_outcomes)


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
    """chi_B is the correlator lower bound with the nearest site of region B."""

    def __init__(self, model: _FermionModel, beta: float, epsilon: float):
        super().__init__(model, beta, epsilon)
        self.cov = thermal_covariance(model.spectrum, beta)
        self.chi_e = chi2_E_spectral(model.lines.at(beta), beta).value

    def at(self, x: int) -> tuple[int, float]:
        _region_b_for_distance(self.model.n, x)  # x must leave region B a site
        site = self.model.site
        j_b = site - x
        if j_b < 0:
            raise ConfigError(f"x = {x} walks off the chain")
        conn = connected_xx(self.cov, site, j_b)
        return x, correlator_lb_value(conn, x_expectation(self.cov, j_b))


_KAPPA_CACHE: dict[tuple[int, float], float] = {}


def _fit_lattice_kappa(n: int, g: float) -> float:
    """Two-point amplitude of the X correlator from near-ground-state data."""
    key = (n, g)
    if key not in _KAPPA_CACHE:
        spectrum = bdg_diagonalize(n, g)
        beta0 = 50.0 * n  # beta eps_min >> 1 even at the critical gap ~ 1/n
        cov = thermal_covariance(spectrum, beta0)
        center = _center_site(n)
        seps = np.arange(10, min(51, center))
        cors = np.array([connected_xx(cov, center, center - int(s)) for s in seps])
        _KAPPA_CACHE[key] = fit_kappa(seps, cors, 1.0).kappa
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

    def at(self, x: int) -> tuple[int, float]:
        return x, self.chi_e + k2_cft(self.params, float(x))

    def depth_closed_form(self) -> float:
        c = c_constant(CFT_DELTA, self.model.kappa)
        return depth_bound_cft(self.beta, self.epsilon, CFT_DELTA, c)


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


def _write_rows(path: Path, rows: list[list], errors: list[str | None]) -> None:
    has_errors = any(e is not None for e in errors)
    header = ", ".join(COLUMNS) + (", error" if has_errors else "")
    lines = [header]
    for row, err in zip(rows, errors):
        cells = [_fmt(v) for v in row]
        if has_errors:
            cells.append("" if err is None else err.replace(",", ";"))
        lines.append(", ".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _sidecar(path: Path, opts: dict, elapsed: float, n_rows: int) -> None:
    payload = {
        "config": {k: opts[k] for k in sorted(opts)},
        "version": __version__,
        "timing_seconds": round(elapsed, 6),
        "rows": n_rows,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_bound(opts: dict, terms_raw: dict[str, str]) -> int:
    backend = opts.get("backend", "dense")
    epsilon, k_eps = _resolve_epsilon(opts)
    _threads(opts)  # bound runs on one thread, but the setting is still checked
    start = time.perf_counter()
    if "beta" not in opts:
        raise ConfigError("--beta is required for bound")
    xs = _parse_grid(opts["x-grid"], integer=True) if "x-grid" in opts else []
    region = _parse_sites(opts["region-b"]) if "region-b" in opts else None
    if backend == "dense" and region is None and not xs:
        raise ConfigError("dense bound needs --region-b or --x-grid")
    if backend == "freefermion" and not xs:
        raise ConfigError("freefermion bound needs --x-grid with a single distance")
    model = _build_model(opts, terms_raw, opts.get("measure", "projective-x"))
    if backend == "dense":
        if region is None:
            region = _region_b_for_distance(model.n, xs[0])
        if len(set(region)) != len(region):
            raise ConfigError(f"--region-b {opts['region-b']!r} repeats a site")
        for s in region:
            if not 0 <= s < model.n:
                raise ConfigError(f"--region-b site {s} lies outside the chain [0, {model.n})")
        if model.site in region:
            raise ConfigError("measured site must lie outside region B")
    ctx = model.context(float(opts["beta"]), epsilon)
    extras: dict = {}
    if backend == "dense":
        rho = ctx.marginal(region)
        row = _row(ctx, model.distance(region), ctx.chi_b(region, rho))
        extras["s_b"] = float(von_neumann_entropy(rho.reduced(region)))
        extras["s_abc"] = ctx.entropy
    elif xs:
        row = _row(ctx, *ctx.at(xs[0]))
    else:
        row = [
            ctx.beta, model.g, model.n, float("nan"), float("nan"), ctx.chi_e,
            float("nan"), float("nan"), 12.0 * epsilon, epsilon, ctx.depth_closed_form(), backend,
        ]
    if backend == "cft":
        extras["kappa"] = model.kappa
    elapsed = time.perf_counter() - start
    record = dict(zip(COLUMNS, row))
    record["wall_time_seconds"] = round(elapsed, 6)
    record["version"] = __version__
    if k_eps is not None:
        record["k_eps"] = k_eps
    record.update(extras)
    fmt = opts.get("format", "csv")
    if fmt == "json":
        text = json.dumps({k: (v if isinstance(v, str) else _json_num(v)) for k, v in record.items()},
                          indent=2, sort_keys=True) + "\n"
    else:
        text = ", ".join(COLUMNS) + "\n" + ", ".join(_fmt(v) for v in row) + "\n"
    out = opts.get("out")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _json_num(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _cmd_scan(opts: dict, terms_raw: dict[str, str]) -> int:
    if "out" not in opts:
        raise ConfigError("scan requires --out")
    if opts.get("n") is None:
        if opts.get("backend") == "cft":
            opts["n"] = 301  # continuum rows; n only sizes the amplitude fit
        else:
            raise ConfigError("scan requires --n")
    epsilon, _ = _resolve_epsilon(opts)
    if "beta-grid" in opts:
        betas = _parse_grid(opts["beta-grid"])
    elif "beta" in opts:
        betas = [float(opts["beta"])]
    else:
        raise ConfigError("scan requires --beta-grid or --beta")
    if "x-grid" not in opts:
        raise ConfigError("scan requires --x-grid")
    xs = _parse_grid(opts["x-grid"], integer=True)
    start = time.perf_counter()
    workers = _threads(opts)
    model = _build_model(opts, terms_raw, opts.get("measure", "weak-x"))
    results = _pool_map(workers, lambda beta: _beta_rows(model, beta, xs, epsilon), betas)
    rows = [row for r, _ in results for row in r]
    errors = [err for _, e in results for err in e]
    out = Path(opts["out"])
    fmt = opts.get("format", "csv")
    elapsed = time.perf_counter() - start
    if fmt == "json":
        payload = {
            "config": {k: opts[k] for k in sorted(opts)},
            "version": __version__,
            "timing_seconds": round(elapsed, 6),
            "rows": [dict(zip(COLUMNS, [_json_num(v) if not isinstance(v, str) else v for v in row]))
                     for row in rows],
            "errors": [e for e in errors if e] or None,
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write_rows(out, rows, errors)
        _sidecar(out.with_suffix(".json"), opts, elapsed, len(rows))
    return 0


def _cmd_fig2(opts: dict, terms_raw: dict[str, str]) -> int:
    if "out" not in opts:
        raise ConfigError("fig2 requires --out (dataset stem)")
    n = int(opts.get("n", 301))
    betas = _parse_grid(opts["beta-grid"]) if "beta-grid" in opts else [10.0 * i for i in range(1, 11)]
    xs = _parse_grid(opts["x-grid"], integer=True) if "x-grid" in opts else list(range(1, 61))
    eps_approx = _epsilon_of_k(float(opts.get("k-eps", 1e-5)))
    gs = (0.5, 1.0, 1.5)
    site = _probe_site(opts, n)
    start = time.perf_counter()
    workers = _threads(opts)

    def g_task(g: float):
        model = _FermionModel(n, g, site)
        ratio_rows: list[list] = []
        depth_rows: list[list] = []
        for beta in betas:
            rows, errors = _beta_rows(model, beta, xs, 0.0)
            rows = [row for row, err in zip(rows, errors) if err is None]
            ratio_rows += rows
            records = [dict(zip(COLUMNS, row)) for row in rows]
            exact = [r["depth_lb"] for r in records]
            approx = [approx_verdict(r["criterion"], r["x_ab"], eps_approx, weak=True).depth_lower_bound
                      for r in records]
            for eps, depths in ((0.0, exact), (eps_approx, approx)):
                depth_rows.append([beta, g, n, eps, max(depths, default=0), model.backend])
        return ratio_rows, depth_rows

    per_g = _pool_map(workers, g_task, gs)
    ratio_rows = [row for rr, _ in per_g for row in rr]
    depth_rows = [row for _, dr in per_g for row in dr]
    stem = Path(opts["out"])
    ratio_path = stem.parent / (stem.name + "_ratio.csv")
    depth_path = stem.parent / (stem.name + "_depth.csv")
    _write_rows(ratio_path, ratio_rows, [None] * len(ratio_rows))
    depth_header = "beta, g, n, epsilon, depth_lb, backend"
    lines = [depth_header] + [", ".join(_fmt(v) for v in row) for row in depth_rows]
    depth_path.write_text("\n".join(lines) + "\n")
    _sidecar(stem.parent / (stem.name + ".json"), opts, time.perf_counter() - start, len(ratio_rows))
    return 0


def _cmd_selftest(opts: dict) -> int:
    from .models import gibbs_state, holevo_finite_difference
    from .fermion import MajoranaCovariance, gaussian_entropy, many_body_energies, pfaffian
    from .perturbative import chi2_E_eigensum, chi2_general, lieb_R_map, lieb_T_map
    from .purification import canonical_purification
    from .bounds import g_func
    from .cft import alpha_delta, h_delta
    from .states import DensityOperator, embed_operator

    rng = np.random.default_rng(int(opts.get("seed", 0)))
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)

    worst = 0.0
    for val, ref in (
        (h_delta(1.0), 2.0 / 3.0),
        (h_delta(0.5), math.pi / 4.0),
        (alpha_delta(1.0), 8.0 / 3.0),
        (g_func(1.0), 2.0 * math.log(2.0)),
        (k_func(0.0, 2), 0.0),
    ):
        worst = max(worst, abs(val - ref))
    report("special values", worst < 1e-12, f"max |err| = {worst:.2e}")

    worst = 0.0
    for _ in range(3):
        n = 3
        ham = build_tfim(n, float(rng.uniform(0.4, 1.6)))
        beta = float(rng.uniform(0.5, 3.0))
        site = int(rng.integers(0, n))
        psi = canonical_purification(gibbs_state(ham, beta))
        general = chi2_general(psi, PAULI_X, (site,), psi.env_sites).value
        oracle = holevo_finite_difference(ham, beta, PAULI_X, (site,), "env")
        worst = max(worst, abs(general - oracle.value) / max(abs(oracle.value), 1e-12))
    report("finite-difference oracle", worst < 1e-4, f"max rel err = {worst:.2e}")

    ham = build_tfim(6, 1.0)
    eig = chi2_E_eigensum(ham, 2.0, embed_operator(PAULI_X, (3,), ham.sites))
    psi = canonical_purification(gibbs_state(ham, 2.0))
    gen = chi2_general(psi, PAULI_X, (3,), psi.env_sites).value
    report("route equality (n=6)", abs(eig.value - gen) < 1e-8, f"|diff| = {abs(eig.value - gen):.2e}")

    worst = 0.0
    for _ in range(100):
        dim = 4
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho_m = a @ a.conj().T
        rho_m /= np.trace(rho_m).real
        rho = DensityOperator(rho_m, (0, 1))
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        h /= np.linalg.norm(h, 2)
        w, v = np.linalg.eigh(rho_m)
        xi = rho_m @ (v @ np.diag(rng.uniform(-1, 1, dim)) @ v.conj().T)
        xi = 0.5 * (xi + xi.conj().T)
        t_norm = np.linalg.norm(lieb_T_map(rho, xi), 2)
        r_norm = np.linalg.norm(lieb_R_map(rho, xi), 2)
        worst = max(worst, t_norm - 1.0, r_norm - 1.0)
    report("map contraction", worst < 1e-9, f"max excess = {worst:.2e}")

    worst = 0.0
    for _ in range(20):
        dim = 2 * int(rng.integers(2, 5))
        a = rng.normal(size=(dim, dim))
        a = a - a.T
        pf = pfaffian(a)
        det = np.linalg.det(a)
        worst = max(worst, abs(pf * pf - det) / max(abs(det), 1e-12))
    report("pfaffian consistency", worst < 1e-8, f"max rel err = {worst:.2e}")

    n = 8
    spectrum = bdg_diagonalize(n, 1.0)
    dense_spec = np.sort(np.linalg.eigvalsh(build_tfim(n, 1.0).to_matrix()))
    ff_spec = np.sort(many_body_energies(spectrum))
    err = float(np.max(np.abs(dense_spec - ff_spec)))
    cov = thermal_covariance(spectrum, 2.0)
    rho = gibbs_state(build_tfim(n, 1.0), 2.0)
    err2 = abs(x_expectation(cov, 3) - rho.expectation(PAULI_X, (3,)))
    err3 = abs(gaussian_entropy(cov, range(4)) - von_neumann_entropy(rho.reduced(tuple(range(4)))))
    ok = err < 1e-9 and err2 < 1e-9 and err3 < 1e-8
    report("cross-backend (n=8)", ok, f"spec {err:.1e}, <X> {err2:.1e}, S {err3:.1e}")

    print(f"selftest: {6 - failures}/6 suites passed")
    return 0 if failures == 0 else 4


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
        _check_applicable(args.command, opts)
        _check_values(opts)
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
        print(f"capability error: out of memory{size}; the dense backend needs O(4^n) memory",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
