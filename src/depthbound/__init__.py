"""Information-theoretic lower bounds on the circuit depth of mixed-state preparation.

The package is organized around one exact criterion — a conditional-mutual-
information comparison between a measured subsystem, a distant region, and the
purifying environment — and its second-order weak-measurement expansion.  All
entropies and susceptibilities are reported in nats.

Layers
------
``states`` / ``purification``
    Density operators, entropies, measurements, and the projective Holevo
    informations evaluated on the system.
``perturbative``
    Quadratic susceptibilities: the system-side Lieb-map form, the thermal
    eigenbasis sum, and the correlator lower bound.
``bounds``
    Verdict assembly: thresholds k(epsilon), depth floors from graph distance.
``models`` / ``fermion``
    Dense spin chains and the quadratic-fermion backend used at large n.
``cft``
    Continuum closed forms and crossing/fit helpers (unit-velocity units).
``backends``
    Row evaluation: a dense, free-fermion or cft model gives, per beta,
    chi_E, and per point chi_B and the verdict.
``cli``
    The ``depthbound`` command-line driver: options, runs and writers.
``oracles``
    The cross-check routes: state vectors, purifications, channels and the
    two-route criterion evaluator, the general chi2 formula and the Lieb
    maps, dense Gibbs states, spectral-line and finite-difference oracles.
    Only ``selftest`` (``checks``), the tests and library callers use them,
    so the command-line runs never import this module; every name it holds
    also resolves from its old module and from the package.

Every public name is listed once below, under its home module, and
resolves on first use (PEP 562): ``import depthbound`` loads numpy and no
layer module, and ``depthbound.<name>`` or ``depthbound.<module>`` imports
the home module, with what it imports, at that point.
"""

from __future__ import annotations

__version__ = "0.1.0"

from importlib import import_module
from typing import Callable

from ._openblas import short_thread_timeout

# numpy's OpenBLAS reads its thread timeout as numpy loads; every layer module
# imports numpy, so when this package is the first to, the load is here.
with short_thread_timeout():
    import numpy
del numpy, short_thread_timeout

# Each public name, once, under its home module.  ``__all__`` is read off this
# table, and ``__getattr__`` imports a name's home module on first use.
_PUBLIC = {
    "states": ("DensityOperator", "NumericalConsistencyError", "entropy_from_spectrum", "von_neumann_entropy"),
    "purification": ("MeasurementSpec", "projective_chi_B", "projective_chi_E_factors"),
    "perturbative": ("Chi2Result", "chi2_E_eigenbasis", "chi2_system", "correlator_lb_value", "f_beta_weight"),
    "bounds": ("DepthBoundResult", "approx_verdict", "exact_verdict", "g_func", "invert_k", "k_func"),
    "models": ("ParitySector", "SpectralLines", "SpinHamiltonian", "ThermalEigensystem", "build_tfim"),
    "fermion": ("BogoliubovSpectrum", "MajoranaCovariance", "bdg_diagonalize", "chi2_E_quadratic", "connected_xx",
                "energy_expectation", "gaussian_entropy", "ground_state_covariance", "many_body_energies", "pfaffian",
                "string_x_expectation", "thermal_covariance", "weak_x_lines", "x_expectation"),
    "cft": ("CftParams", "CrossingResult", "KappaFit", "alpha_delta", "c_constant", "chi2_B_cft",
            "chi2_B_zero_temperature", "chi2_E_cft", "depth_bound_cft", "find_crossing", "fit_kappa", "h_delta",
            "k2_cft"),
    "oracles": ("QubitGraph", "StateVector", "graph_distance", "mutual_information", "partial_trace", "trace_distance",
                "CriterionResult", "IsometryChannel", "MeasuredEnsemble", "PrivateInformation", "PurifiedState",
                "TraceOutChannel", "apply_measurement", "canonical_purification", "ensemble_purification",
                "holevo_information", "measurement_dilation", "private_information", "projective_chi_E",
                "theorem_criterion", "XiOperator", "build_xi", "chi2_B_correlator_lb", "chi2_E_eigensum",
                "chi2_E_spectral", "chi2_general", "lieb_R_map", "lieb_T_map", "OracleEstimate",
                "dynamical_correlation", "gibbs_state", "holevo_finite_difference"),
}
__all__ = ["__version__", *(name for names in _PUBLIC.values() for name in names)]


def _resolver(namespace: dict, homes: dict[str, str]) -> Callable[[str], object]:
    """A module ``__getattr__`` (PEP 562) for the names of ``homes``, each
    read from the package module it maps to (a module's own name gives the
    module).  The first access imports that module and binds the object in
    ``namespace``, so later reads, ``vars(module)`` included, find it there,
    and a module no caller reads from is never imported."""

    def __getattr__(name: str) -> object:
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        home = import_module(f"{__name__}.{homes[name]}")
        value = namespace[name] = home if name == homes[name] else getattr(home, name)
        return value

    return __getattr__


_HOMES = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}
__getattr__ = _resolver(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
