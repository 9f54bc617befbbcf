"""Acceptance gate: every contract criterion at its stated tolerance.

Each criterion is one test; run ``pytest tests/test_acceptance.py -v -s``
to see one [PASS]/[FAIL] line per criterion alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from depthbound.cft import depth_bound_cft, find_crossing
from depthbound.checks import (
    cross_backend_errors,
    finite_difference_error,
    perturbation_violation,
    route_equality_error,
    special_values_error,
)
from depthbound.cli import main as cli_main
from depthbound.fermion import (
    bdg_diagonalize,
    chi2_E_quadratic,
    connected_xx,
    thermal_covariance,
    x_expectation,
)
from depthbound.perturbative import correlator_lb_value
from depthbound.purification import (
    IsometryChannel,
    MeasurementSpec,
    TraceOutChannel,
    apply_measurement,
    canonical_purification,
    ensemble_purification,
    holevo_information,
    theorem_criterion,
)
from depthbound.states import DensityOperator, StateVector, mutual_information

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_density(rng, sites, rank) -> DensityOperator:
    d = 2 ** len(sites)
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real, tuple(sites))


def _random_povm(rng, n_outcomes, sites) -> MeasurementSpec:
    d = 2 ** len(sites)
    gs = []
    for _ in range(n_outcomes):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(a @ a.conj().T)
    s = sum(gs)
    w, v = np.linalg.eigh(s)
    s_inv_half = v @ np.diag(w**-0.5) @ v.conj().T
    ops = tuple(s_inv_half @ g @ s_inv_half for g in gs)
    return MeasurementSpec(ops, tuple(sites), tuple(str(i) for i in range(n_outcomes)))


def _random_ensemble_purification(rho: DensityOperator, rng):
    """A purification of rho through a Haar-rotated pure-state ensemble."""
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12
    p, vecs = w[keep], v[:, keep]
    r = int(p.size)
    m = r + int(rng.integers(1, 3))
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    u = q[:, :r]
    members = []
    for j in range(m):
        phi = vecs @ (u[j].conj() * np.sqrt(p))
        qj = float(np.vdot(phi, phi).real)
        if qj < 1e-14:
            continue
        members.append((qj, StateVector(phi / math.sqrt(qj), rho.sites)))
    total = sum(q for q, _ in members)
    members = [(q / total, member) for q, member in members]
    return ensemble_purification(members)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_quadratic_coefficient_matches_finite_difference():
    start = time.perf_counter()
    worst = finite_difference_error(np.random.default_rng(101), 20)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "quadratic coefficient vs finite-difference oracle, 20 instances n<=4",
        worst <= 1e-4 and elapsed < 120.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_environment_route_equality():
    start = time.perf_counter()
    worst = route_equality_error((6, 8))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "eigensum = spectral = general on n in {6, 8}",
        worst <= 1e-8 and elapsed < 60.0,
        f"max pairwise diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_perturbation_inequalities():
    worst = perturbation_violation(np.random.default_rng(303), 1000)
    _verdict(
        3,
        "perturbation inequalities, 1000 instances",
        worst <= 1e-9,
        f"max violation {worst:.2e}",
    )


def test_criterion_04_purification_independence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(200):
        rho = _random_density(rng, (0, 1), rank=int(rng.integers(1, 5)))
        if k % 3 == 0:
            m = MeasurementSpec.projective(Z, (0,))
        elif k % 3 == 1:
            m = MeasurementSpec.weak(X, 0.1, (0,))
        else:
            m = _random_povm(rng, int(rng.integers(2, 5)), (0,))
        psi_c = canonical_purification(rho)
        psi_e = _random_ensemble_purification(rho, rng)
        ens_c = apply_measurement(psi_c, m)
        ens_e = apply_measurement(psi_e, m)
        chi_b_c = holevo_information(ens_c, (1,))
        chi_b_e = holevo_information(ens_e, (1,))
        chi_e_c = holevo_information(ens_c, psi_c.env_sites)
        chi_e_e = holevo_information(ens_e, psi_e.env_sites)
        worst = max(
            worst,
            abs(chi_e_c - chi_e_e),
            abs((chi_b_c - chi_e_c) - (chi_b_e - chi_e_e)),
        )
    _verdict(
        4,
        "environment information is purification independent, 200 instances",
        worst <= 1e-9,
        f"max diff {worst:.2e}",
    )


def test_criterion_05_route_identity_across_channel_families():
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(200):
        rho = _random_density(rng, (0, 1, 2), rank=int(rng.integers(1, 9)))
        kind = k % 5
        if kind == 0:
            channel = MeasurementSpec.projective(Z, (0,))
        elif kind == 1:
            channel = MeasurementSpec.weak(X, float(rng.uniform(0.03, 0.12)), (0,))
        elif kind == 2:
            channel = _random_povm(rng, int(rng.integers(2, 5)), (0,))
        elif kind == 3:
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            channel = IsometryChannel(q[:, :2], (0,))
        elif k % 10 == 4:
            channel = TraceOutChannel((0, 1), (0,))
        else:
            channel = TraceOutChannel((0,), (0,))
        res = theorem_criterion(rho, channel, (2,))
        worst = max(worst, abs(res.route_a - res.route_b))
    _verdict(
        5,
        "criterion route identity incl POVM/isometry/trace-out, 200 instances",
        worst <= 1e-9,
        f"max |route_a - route_b| {worst:.2e}",
    )


def test_criterion_06_data_processing_monotonicity():
    rng = np.random.default_rng(606)
    worst = -np.inf
    for k in range(500):
        rho = _random_density(rng, (0, 1), rank=int(rng.integers(1, 5)))
        psi = canonical_purification(rho)
        m = _random_povm(rng, 4, (0,))
        order = [int(i) for i in rng.permutation(4)]
        merged = MeasurementSpec(
            (
                m.operators[order[0]] + m.operators[order[1]],
                m.operators[order[2]],
                m.operators[order[3]],
            ),
            m.sites,
            ("ab", "c", "d"),
        )
        fine = apply_measurement(psi, m)
        coarse = apply_measurement(psi, merged)
        region = ((1,), psi.env_sites)[k % 2]
        worst = max(
            worst, holevo_information(coarse, region) - holevo_information(fine, region)
        )
    for _ in range(500):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec = StateVector(amps / np.linalg.norm(amps), (0, 1, 2, 3))
        worst = max(
            worst,
            mutual_information(vec, (0,), (1,)) - mutual_information(vec, (0,), (1, 2)),
        )
    _verdict(
        6,
        "coarse-graining and discarding never gain information, 1000 instances",
        worst <= 1e-10,
        f"max violation {worst:.2e}",
    )


def test_criterion_07_cross_backend_equality():
    start = time.perf_counter()
    worst = max(max(cross_backend_errors(n).values()) for n in (8, 10, 12))
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "free-fermion backend vs dense ED at n in {8, 10, 12}",
        worst <= 1e-8 and elapsed < 120.0,
        f"max diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_environment_coefficient_beta_scaling():
    start = time.perf_counter()
    spectrum = bdg_diagonalize(301, 1.0)
    betas = np.arange(10.0, 101.0, 10.0)
    vals = np.array([chi2_E_quadratic(spectrum, b, 150).value for b in betas])
    slope = float(np.polyfit(np.log(betas), np.log(vals), 1)[0])
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "critical-chain environment coefficient scales as beta^-2",
        abs(slope + 2.0) <= 0.15 and elapsed < 60.0,
        f"slope {slope:.4f}, {elapsed:.1f}s",
    )


def test_criterion_09_continuum_prefactor_and_lattice_crossing():
    for beta in (10.0, 40.0, 77.3, 100.0):
        assert depth_bound_cft(beta, 0.0, 1.0, 123.0) == beta * math.log(2.0) / (
            4.0 * math.pi
        )
    spectrum = bdg_diagonalize(301, 1.0)
    center = 150
    u_stars = []
    for beta in range(40, 101, 10):
        cov = thermal_covariance(spectrum, float(beta))
        chi_e = chi2_E_quadratic(spectrum, float(beta), center).value
        xs = [float(x) for x in range(1, 80)]
        chi_bs = [
            correlator_lb_value(
                connected_xx(cov, center, center - int(x)),
                x_expectation(cov, center - int(x)),
            )
            for x in xs
        ]
        res = find_crossing(xs, chi_bs, [chi_e] * len(xs), beta=float(beta))
        u_stars.append(res.u_star)
    u = np.array(u_stars)
    ceiling = math.log(2.0) / (2.0 * math.pi)
    spread = float(u.std() / u.mean())
    frozen = [0.09422630, 0.08105245, 0.07587377, 0.06932434, 0.06415887, 0.06119152, 0.05773221]
    ok = (
        bool(np.all(u > 0.0))
        and bool(np.all(u <= ceiling))
        and spread <= 0.20
        and bool(np.allclose(u, frozen, rtol=0.0, atol=5e-7))
    )
    _verdict(
        9,
        "exact-preparation depth prefactor and lattice crossing window",
        ok,
        f"u* in [{u.min():.4f}, {u.max():.4f}], ceiling {ceiling:.4f}, spread {spread:.3f}",
    )


@pytest.fixture(scope="module")
def fig2_depth_series(tmp_path_factory):
    stem = tmp_path_factory.mktemp("acceptance_fig2") / "fig2"
    assert cli_main(["fig2", "--out", str(stem)]) == 0
    text = (stem.parent / "fig2_depth.csv").read_text()
    header, *lines = text.strip().splitlines()
    cols = header.split(", ")
    rows = [dict(zip(cols, ln.split(", "))) for ln in lines]

    def series(g, want_eps):
        sel = [
            r
            for r in rows
            if float(r["g"]) == g and (float(r["epsilon"]) > 0) == want_eps
        ]
        sel.sort(key=lambda r: float(r["beta"]))
        return [int(float(r["depth_lb"])) for r in sel]

    return series


def test_criterion_10_depth_curve_shapes(fig2_depth_series):
    exact_crit = fig2_depth_series(1.0, False)
    approx_crit = fig2_depth_series(1.0, True)
    approx_off = fig2_depth_series(1.5, True)
    monotone = lambda s: all(b >= a for a, b in zip(s, s[1:]))  # noqa: E731
    ok = (
        monotone(exact_crit)
        and exact_crit[-1] > exact_crit[0]
        and monotone(approx_crit)
        and approx_crit[-1] > approx_crit[0]
        and approx_off[-1] > 0
        and len(set(approx_off[4:])) == 1  # plateau beyond moderate beta
        and exact_crit == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3]
        and approx_crit == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
        and approx_off == [2] * 10
    )
    _verdict(
        10,
        "depth curves grow at the critical point and plateau off it",
        ok,
        f"g=1 exact {exact_crit}, g=1 approx {approx_crit}, g=1.5 approx {approx_off}",
    )


def test_criterion_11_special_values():
    worst = special_values_error()
    _verdict(11, "special values to 1e-12", worst <= 1e-12, f"max |err| {worst:.1e}")
