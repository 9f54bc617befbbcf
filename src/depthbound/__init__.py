"""Information-theoretic lower bounds on the circuit depth of mixed-state preparation.

The package is organized around one exact criterion — a conditional-mutual-
information comparison between a measured subsystem, a distant region, and the
purifying environment — and its second-order weak-measurement expansion.  All
entropies and susceptibilities are reported in nats.

Layers
------
``states`` / ``purification``
    Dense state containers, entropies, purifications, channels, and the
    two-route criterion evaluator.
``perturbative``
    Quadratic susceptibilities: the general Lieb-map form, the thermal
    eigenbasis sum, the spectral-line form, and the correlator lower bound.
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
"""

from __future__ import annotations

__version__ = "0.1.0"

from ._openblas import short_thread_timeout

# numpy's OpenBLAS reads its thread timeout as numpy loads; the submodules
# below import numpy, so when this package is the first to, the load is here.
with short_thread_timeout():
    import numpy
del numpy, short_thread_timeout

from .bounds import (
    DepthBoundResult,
    approx_verdict,
    exact_verdict,
    g_func,
    invert_k,
    k_func,
)
from .cft import (
    CftParams,
    CrossingResult,
    KappaFit,
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
from .fermion import (
    BogoliubovSpectrum,
    MajoranaCovariance,
    bdg_diagonalize,
    chi2_E_quadratic,
    connected_xx,
    energy_expectation,
    gaussian_entropy,
    ground_state_covariance,
    many_body_energies,
    pfaffian,
    string_x_expectation,
    thermal_covariance,
    weak_x_lines,
    x_expectation,
)
from .models import (
    OracleEstimate,
    ParitySector,
    SpectralLines,
    SpinHamiltonian,
    ThermalEigensystem,
    build_tfim,
    dynamical_correlation,
    gibbs_state,
    holevo_finite_difference,
)
from .perturbative import (
    Chi2Result,
    XiOperator,
    build_xi,
    chi2_B_correlator_lb,
    chi2_E_eigenbasis,
    chi2_E_eigensum,
    chi2_E_spectral,
    chi2_general,
    chi2_system,
    correlator_lb_value,
    f_beta_weight,
    lieb_R_map,
    lieb_T_map,
)
from .purification import (
    CriterionResult,
    IsometryChannel,
    MeasuredEnsemble,
    MeasurementSpec,
    PrivateInformation,
    PurifiedState,
    TraceOutChannel,
    apply_measurement,
    canonical_purification,
    ensemble_purification,
    holevo_information,
    measurement_dilation,
    private_information,
    projective_chi_B,
    projective_chi_E,
    projective_chi_E_factors,
    theorem_criterion,
)
from .states import (
    DensityOperator,
    NumericalConsistencyError,
    QubitGraph,
    StateVector,
    entropy_from_spectrum,
    graph_distance,
    mutual_information,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)

__all__ = [
    "__version__",
    # states
    "DensityOperator",
    "NumericalConsistencyError",
    "QubitGraph",
    "StateVector",
    "entropy_from_spectrum",
    "graph_distance",
    "mutual_information",
    "partial_trace",
    "trace_distance",
    "von_neumann_entropy",
    # purification
    "CriterionResult",
    "IsometryChannel",
    "MeasuredEnsemble",
    "MeasurementSpec",
    "PrivateInformation",
    "PurifiedState",
    "TraceOutChannel",
    "apply_measurement",
    "canonical_purification",
    "ensemble_purification",
    "holevo_information",
    "measurement_dilation",
    "private_information",
    "projective_chi_B",
    "projective_chi_E",
    "projective_chi_E_factors",
    "theorem_criterion",
    # perturbative
    "Chi2Result",
    "XiOperator",
    "build_xi",
    "chi2_B_correlator_lb",
    "chi2_E_eigenbasis",
    "chi2_E_eigensum",
    "chi2_E_spectral",
    "chi2_general",
    "chi2_system",
    "correlator_lb_value",
    "f_beta_weight",
    "lieb_R_map",
    "lieb_T_map",
    # bounds
    "DepthBoundResult",
    "approx_verdict",
    "exact_verdict",
    "g_func",
    "invert_k",
    "k_func",
    # models
    "OracleEstimate",
    "ParitySector",
    "SpectralLines",
    "SpinHamiltonian",
    "ThermalEigensystem",
    "build_tfim",
    "dynamical_correlation",
    "gibbs_state",
    "holevo_finite_difference",
    # fermion
    "BogoliubovSpectrum",
    "MajoranaCovariance",
    "bdg_diagonalize",
    "chi2_E_quadratic",
    "connected_xx",
    "energy_expectation",
    "gaussian_entropy",
    "ground_state_covariance",
    "many_body_energies",
    "pfaffian",
    "string_x_expectation",
    "thermal_covariance",
    "weak_x_lines",
    "x_expectation",
    # cft
    "CftParams",
    "CrossingResult",
    "KappaFit",
    "alpha_delta",
    "c_constant",
    "chi2_B_cft",
    "chi2_B_zero_temperature",
    "chi2_E_cft",
    "depth_bound_cft",
    "find_crossing",
    "fit_kappa",
    "h_delta",
    "k2_cft",
]
