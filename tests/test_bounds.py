"""Continuity functions g and k, their inversion, and depth verdicts."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthbound.bounds import (
    STRICT_GUARD,
    DepthBoundResult,
    approx_verdict,
    exact_verdict,
    g_func,
    invert_k,
    k_func,
)

LN2 = math.log(2.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# g and k
# ---------------------------------------------------------------------------


def test_g_frozen_values():
    assert g_func(0.0) == 0.0
    # independently computed with 40-digit arithmetic, rounded to float64
    assert g_func(0.01) == pytest.approx(0.056101536021580675, rel=1e-15)
    assert g_func(1.0) == pytest.approx(2.0 * LN2, rel=1e-15)


def test_k_frozen_values():
    assert k_func(0.0, 2) == 0.0
    assert k_func(0.01, 2) == pytest.approx(0.23826908769752161, rel=1e-15)
    # d_A' = 1: the log term drops, leaving 4 g(eps)
    assert k_func(0.3, 1) == pytest.approx(4.0 * g_func(0.3), rel=1e-15)


def test_g_rejects_negative():
    with pytest.raises(ValueError):
        g_func(-1e-9)


def test_k_domain_validation():
    with pytest.raises(ValueError):
        k_func(1.2, 2)
    with pytest.raises(ValueError):
        k_func(0.5, 0)


@settings(deadline=None, max_examples=80)
@given(st.floats(min_value=1e-12, max_value=1.0))
def test_g_positive_on_positive_arguments(x):
    assert g_func(x) > 0.0


def test_g_monotone_on_unit_interval():
    xs = [i / 400.0 for i in range(1, 401)]
    vals = [g_func(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=1e-10, max_value=1.0, exclude_max=False),
    st.integers(min_value=2, max_value=64),
)
def test_k_increasing_in_both_arguments(eps, d):
    assert k_func(eps, d) > k_func(eps * 0.5, d)
    assert k_func(eps, 2 * d) > k_func(eps, d)


@settings(deadline=None, max_examples=80)
@given(
    st.floats(min_value=1e-9, max_value=0.99),
    st.integers(min_value=2, max_value=32),
)
def test_invert_k_roundtrip(eps, d):
    eps_back = invert_k(k_func(eps, d), d)
    assert eps_back == pytest.approx(eps, rel=1e-9, abs=1e-12)


def test_invert_k_pinned_cli_default():
    """k = 1e-5 at d_A' = 2: the approximate-mode default used downstream."""
    eps = invert_k(1e-5, 2)
    assert eps == pytest.approx(1.46336337323e-7, rel=1e-9)
    assert k_func(eps, 2) == pytest.approx(1e-5, rel=1e-12)


def test_invert_k_edge_values():
    assert invert_k(0.0, 2) == 0.0
    with pytest.raises(ValueError):
        invert_k(-1e-3, 2)
    with pytest.raises(ValueError):
        invert_k(k_func(1.0, 2) * 1.01, 2)  # beyond the range of k


@pytest.mark.parametrize("d", [2, 4])
def test_invert_k_matches_scipy_brentq_bitwise(d):
    """The in-module Brent solver returns scipy's float on every target:
    5000 log-spaced and 5000 uniform k, and the ends of the range."""
    from scipy.optimize import brentq

    rng = np.random.default_rng(d)
    top = k_func(1.0, d)
    targets = np.concatenate([np.logspace(-14, math.log10(top), 5001)[:-1],
                              rng.uniform(0.0, top, 5000), [top, 1e-300, 5e-324]])
    for k in targets.tolist():
        expected = brentq(lambda e: k_func(e, d) - k, 0.0, 1.0, xtol=1e-12)
        assert invert_k(k, d) == expected, k


_SCIPY_FREE_RUNS = {
    "dense-bound": ("bound", "--backend", "dense", "--n", "6", "--g", "1", "--beta", "1", "--x-grid", "1"),
    "dense-weak-scan": ("scan", "--backend", "dense", "--n", "6", "--g", "1", "--beta-grid", "1:2",
                        "--x-grid", "1:2", "--measure", "weak-x", "--out", "{out}"),
    "cft-scan": ("scan", "--backend", "cft", "--beta-grid", "10:20:10", "--x-grid", "1:3", "--out", "{out}"),
}
_FREEFERMION_SCAN = ("scan", "--backend", "freefermion", "--n", "21", "--g", "1", "--beta-grid", "1:2",
                     "--x-grid", "1:2", "--out", "{out}")


def _scipy_modules_after(argv, tmp_path):
    """The scipy modules loaded by a fresh process that imports the CLI and,
    given arguments, runs it on them."""
    code = (
        "import sys\n"
        "from depthbound.cli import main\n"
        "if sys.argv[1:]:\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')), file=sys.stderr)\n"
    )
    args = [a.format(out=tmp_path / "out.csv") for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return set(out.stderr.split())


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """No scipy module, scipy.optimize and scipy.special included, is on the
    CLI's import path."""
    assert _scipy_modules_after((), tmp_path) == set()


@pytest.mark.parametrize("run", sorted(_SCIPY_FREE_RUNS))
def test_dense_and_cft_paths_load_no_scipy(run, tmp_path):
    """The dense and cft runs load no scipy module at all: the Schur form,
    the only scipy routine, opens scipy's LAPACK extension file on its
    first call."""
    assert _scipy_modules_after(_SCIPY_FREE_RUNS[run], tmp_path) == set()


def test_freefermion_scan_loads_the_lapack_extension_only(tmp_path):
    """The Schur form opens scipy's LAPACK extension file for its OpenBLAS
    and initialises no scipy module: not the extension's, scipy,
    scipy.linalg or scipy._lib."""
    assert _scipy_modules_after(_FREEFERMION_SCAN, tmp_path) == set()


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x_ab,expected_depth",
    [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (10, 6), (79, 40)],
)
def test_depth_from_distance(x_ab, expected_depth):
    res = exact_verdict(1.0, x_ab)
    assert res.bound_active
    assert res.depth_lower_bound == expected_depth == x_ab // 2 + 1


def test_exact_verdict_inactive_on_nonpositive():
    for value in (0.0, -0.5, 1e-13):  # values inside the strict guard
        res = exact_verdict(value, 7)
        assert not res.bound_active
        assert res.depth_lower_bound == 0


def test_approx_weak_threshold_is_twelve_epsilon():
    eps = 1e-4
    res = approx_verdict(0.5, 9, eps, weak=True)
    assert res.threshold == pytest.approx(12.0 * eps, rel=1e-15)
    assert res.mode == "approx-weak"
    assert res.bound_active
    assert res.depth_lower_bound == 5


def test_approx_general_threshold_is_k():
    eps = 1e-3
    res = approx_verdict(1.0, 4, eps, d_aprime=4)
    assert res.threshold == pytest.approx(k_func(eps, 4), rel=1e-15)
    assert res.d_aprime == 4
    assert res.mode == "approx-general"


def test_approx_general_requires_dimension():
    with pytest.raises(ValueError):
        approx_verdict(1.0, 4, 1e-3)


def test_threshold_equality_gives_no_bound():
    """Sitting exactly on the threshold must not activate the bound."""
    eps = 2e-4
    res = approx_verdict(12.0 * eps, 11, eps, weak=True)
    assert not res.bound_active
    assert res.depth_lower_bound == 0


def test_epsilon_zero_reduces_to_exact():
    res_w = approx_verdict(0.3, 6, 0.0, weak=True)
    res_e = exact_verdict(0.3, 6)
    assert res_w.bound_active == res_e.bound_active
    assert res_w.depth_lower_bound == res_e.depth_lower_bound
    assert res_w.threshold == 0.0
    assert res_w.mode == "approx-weak"


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1e-12, max_value=1e-12)),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_epsilon_zero_is_the_exact_verdict(value, x_ab):
    """At eps = 0 both thresholds vanish: the weak and the general verdict,
    with or without d_A', are the exact one in all but their mode."""
    exact = exact_verdict(value, x_ab)
    assert (exact.threshold, exact.epsilon, exact.mode, exact.d_aprime) == (0.0, 0.0, "exact", None)
    for kwargs in ({"weak": True}, {}, {"d_aprime": 2}, {"d_aprime": 4}):
        res = approx_verdict(value, x_ab, 0.0, **kwargs)
        assert res.threshold == 0.0 and res.epsilon == 0.0
        assert res.bound_active == exact.bound_active
        assert res.depth_lower_bound == exact.depth_lower_bound
        assert res.criterion_value == exact.criterion_value
        assert res.d_aprime == kwargs.get("d_aprime")


@settings(deadline=None, max_examples=100)
@given(
    st.floats(min_value=-1.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-300, max_value=1.0),
    st.sampled_from([2, 4]),
)
def test_general_threshold_is_k_at_positive_epsilon(value, x_ab, eps, d_aprime):
    res = approx_verdict(value, x_ab, eps, d_aprime=d_aprime)
    assert res.threshold == k_func(eps, d_aprime)
    assert res.bound_active == (value - res.threshold > STRICT_GUARD)
    assert res.mode == "approx-general" and res.d_aprime == d_aprime


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        approx_verdict(1.0, 3, -1e-6, weak=True)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=0.1),
)
def test_verdict_activation_consistency(value, x_ab, eps):
    """depth > 0 exactly when the bound is declared active."""
    res = approx_verdict(value, x_ab, eps, weak=True)
    assert isinstance(res, DepthBoundResult)
    assert res.bound_active == (res.depth_lower_bound > 0)
    if res.bound_active:
        assert res.criterion_value > res.threshold
        assert res.depth_lower_bound == x_ab // 2 + 1
