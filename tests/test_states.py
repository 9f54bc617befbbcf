"""Dense state containers, entropies, and register geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthbound.states import (
    DensityOperator,
    QubitGraph,
    StateVector,
    apply_on_sites,
    embed_operator,
    entropy_from_spectrum,
    graph_distance,
    mutual_information,
    operator_norm,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20260817)

PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def random_state(sites, rng=RNG):
    amp = rng.normal(size=2 ** len(sites)) + 1j * rng.normal(size=2 ** len(sites))
    amp /= np.linalg.norm(amp)
    return StateVector(amp, tuple(sites))


def random_density(sites, rank=None, rng=RNG):
    d = 2 ** len(sites)
    rank = rank or d
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real, tuple(sites))


# ---------------------------------------------------------------------------
# graphs and distances
# ---------------------------------------------------------------------------


def test_path_graph_distance_is_hop_count():
    g = QubitGraph.path(7)
    assert graph_distance(g, (0,), (6,)) == 6
    assert graph_distance(g, (2,), (4, 5)) == 2
    assert graph_distance(g, (3,), (3,)) == 0


def test_grid_graph_distance():
    g = QubitGraph.grid(3, 4)
    # opposite corners of a 3x4 grid: Manhattan distance
    assert graph_distance(g, (0,), (11,)) == 5


def test_distance_disconnected_is_inf():
    g = QubitGraph(4, ((0, 1), (2, 3)))
    assert graph_distance(g, (0,), (3,)) == math.inf


def test_distance_rejects_empty_region():
    g = QubitGraph.path(3)
    with pytest.raises(ValueError):
        graph_distance(g, (), (1,))


# ---------------------------------------------------------------------------
# state vectors and density operators
# ---------------------------------------------------------------------------


def test_reduced_matches_partial_trace():
    psi = random_state((0, 1, 2, 3))
    rho = psi.density()
    for keep in [(0,), (0, 2), (1, 3), (0, 1, 2)]:
        direct = psi.reduced(keep)
        via_full = rho.reduced(keep)
        assert np.allclose(direct.matrix, via_full.matrix, atol=1e-12)


@pytest.mark.parametrize("complex_state", [False, True])
def test_reduced_to_the_whole_register_is_the_operator(complex_state):
    """Keeping every site in the register's order returns the operator
    itself, with the bits of tracing out nothing: its stored Hermitian part
    is exactly Hermitian, so taking that part again changes nothing."""
    if complex_state:
        rho = random_density((3, 0, 1))
    else:
        a = RNG.normal(size=(8, 8))
        rho = DensityOperator(a @ a.T / np.trace(a @ a.T), (3, 0, 1))
    assert rho.reduced((3, 0, 1)) is rho
    d = rho.matrix.shape[0]
    traced = np.einsum("arbr->ab", rho.matrix.reshape(d, 1, d, 1))
    assert DensityOperator(traced, rho.sites, check=False).matrix.tobytes() == rho.matrix.tobytes()
    assert rho.reduced((0, 1, 3)) is not rho


def test_partial_trace_complementary_spectra_match():
    """A pure state's two halves share their entanglement spectrum."""
    psi = random_state((0, 1, 2, 3, 4))
    left = psi.reduced((0, 1)).eigenvalues()
    right = psi.reduced((2, 3, 4)).eigenvalues()
    nz = left[left > 1e-12]
    nz_r = right[right > 1e-12]
    assert np.allclose(np.sort(nz), np.sort(nz_r), atol=1e-10)


def test_expectation_agrees_with_dense_embedding():
    psi = random_state((0, 1, 2))
    for name, site in (("X", 0), ("Y", 1), ("Z", 2)):
        op = PAULI[name]
        direct = psi.expectation(op, (site,))
        full = embed_operator(op, (site,), psi.sites)
        dense = np.vdot(psi.amplitudes, full @ psi.amplitudes).real
        assert abs(direct - dense) < 1e-12


def test_density_operator_rejects_nonhermitian_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.6, 0.4], [0.0, 0.5]]), (0,))


def test_reordered_is_a_relabeling():
    rho = random_density((0, 1, 2))
    perm = rho.reordered((2, 0, 1))
    assert perm.sites == (2, 0, 1)
    # expectation of Z on physical site 0 must be invariant
    z0 = rho.expectation(PAULI["Z"], (0,))
    z0p = perm.expectation(PAULI["Z"], (0,))
    assert abs(z0 - z0p) < 1e-12


def test_apply_on_sites_matches_embedding():
    psi = random_state((0, 1, 2))
    op = PAULI["X"] @ PAULI["Z"] * 1.0
    out = apply_on_sites(psi.amplitudes, psi.sites, op, (1,))
    dense = embed_operator(op, (1,), psi.sites) @ psi.amplitudes
    assert np.allclose(out, dense, atol=1e-12)


def test_operator_norm_pauli_is_one():
    for p in PAULI.values():
        assert abs(operator_norm(p) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_binary_entropy_values(p):
    spec = np.array([p, 1.0 - p])
    expected = 0.0
    for q in (p, 1.0 - p):
        if q > 0:
            expected -= q * math.log(q)
    assert abs(entropy_from_spectrum(spec) - expected) < 1e-12


def test_entropy_rejects_significant_negatives():
    with pytest.raises(ValueError):
        entropy_from_spectrum(np.array([1.1, -0.1]))


def test_max_entropy_is_log_dim():
    rho = DensityOperator(np.eye(8) / 8, (0, 1, 2))
    assert abs(von_neumann_entropy(rho) - 3 * math.log(2)) < 1e-12


def test_pure_state_entropy_zero():
    psi = random_state((0, 1, 2))
    assert von_neumann_entropy(psi.density()) < 1e-10


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mutual_information_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((0, 1, 2), rng=rng)
    mi = mutual_information(rho, (0,), (1, 2))
    assert mi > -1e-10


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mutual_information_pure_state_doubles_entropy(seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = StateVector(amp, (0, 1, 2), normalize=True)
    rho = psi.density()
    s_a = von_neumann_entropy(rho.reduced((0,)))
    mi = mutual_information(rho, (0,), (1, 2))
    assert abs(mi - 2 * s_a) < 1e-9


def test_conditional_mutual_information_ssa():
    """Strong subadditivity: I(A:C|B) >= 0 on random states."""
    for _ in range(25):
        rho = random_density((0, 1, 2))
        cmi = mutual_information(rho, (0,), (2,), conditioning=(1,))
        assert cmi > -1e-9


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------


def test_trace_distance_bounds_and_symmetry():
    rho, sigma = random_density((0, 1)), random_density((0, 1))
    d = trace_distance(rho, sigma)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert abs(d - trace_distance(sigma, rho)) < 1e-12
    assert trace_distance(rho, rho) < 1e-12


def test_trace_distance_orthogonal_pure_states_is_one():
    up = DensityOperator(np.diag([1.0, 0.0]), (0,))
    dn = DensityOperator(np.diag([0.0, 1.0]), (0,))
    assert abs(trace_distance(up, dn) - 1.0) < 1e-12


def test_trace_distance_reorders_site_labels():
    """A permuted site tuple names the same physical state."""
    rho = random_density((0, 1))
    assert trace_distance(rho, rho.reordered((1, 0))) < 1e-12


def test_partial_trace_function_matches_method():
    rho = random_density((0, 1, 2))
    a = partial_trace(rho, keep=(0, 2))
    b = rho.reduced((0, 2))
    assert np.allclose(a.matrix, b.matrix, atol=1e-13)
