"""Spin-chain Hamiltonians, Gibbs states, and dynamical correlators."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from depthbound.models import (
    PAULI,
    SpectralLines,
    SpinHamiltonian,
    ThermalEigensystem,
    build_tfim,
    dynamical_correlation,
    gibbs_state,
    holevo_finite_difference,
    reflection_basis,
)
from depthbound.perturbative import chi2_E_eigenbasis
from depthbound.states import NumericalConsistencyError, embed_operator, trace_distance, von_neumann_entropy

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


# ---------------------------------------------------------------------------
# Hamiltonian construction
# ---------------------------------------------------------------------------


def test_tfim_term_structure():
    ham = build_tfim(5, 0.7)
    assert ham.n_sites == 5
    assert len(ham.terms) == 2 * 5 - 1
    zz = [t for t in ham.terms if len(t[1]) == 2]
    xs = [t for t in ham.terms if len(t[1]) == 1]
    assert all(c == -1.0 for c, _ in zz)
    assert all(c == -0.7 for c, _ in xs)
    assert all(letter == "Z" for _, ops in zz for _, letter in ops)


@pytest.mark.parametrize("g", [0.3, 1.0, 2.5])
def test_two_site_tfim_spectrum(g):
    """Closed form: {±√(1+4g²), ±1} from the parity-resolved 2x2 blocks."""
    ham = build_tfim(2, g)
    w = np.sort(np.linalg.eigvalsh(ham.to_matrix()))
    root = math.sqrt(1.0 + 4.0 * g * g)
    assert np.allclose(w, sorted([-root, -1.0, 1.0, root]), atol=1e-12)


def test_hamiltonian_matrix_is_real_symmetric_for_tfim():
    mat = build_tfim(3, 1.0).to_matrix()
    assert mat.dtype == np.float64
    assert np.allclose(mat, mat.T, atol=0.0)


def test_hamiltonian_validates_sites():
    with pytest.raises(ValueError):
        SpinHamiltonian(2, ((1.0, ((3, "Z"),)),))
    with pytest.raises(ValueError):
        SpinHamiltonian(2, ((1.0, ((0, "Q"),)),))
    with pytest.raises(ValueError):
        SpinHamiltonian(2, ((1.0, ((0, "Z"), (0, "X"))),))


def test_hamiltonian_embedding_matches_kron():
    ham = SpinHamiltonian(3, ((0.5, ((1, "X"),)), (-2.0, ((0, "Z"), (2, "Z")))))
    expected = 0.5 * embed_operator(X, (1,), (0, 1, 2)) - 2.0 * embed_operator(
        np.kron(Z, Z), (0, 2), (0, 1, 2)
    )
    assert np.allclose(ham.to_matrix(), expected, atol=1e-14)


def _kron_reference(ham):
    """H assembled term by term from kron products and embed_operator."""
    d = 2**ham.n_sites
    out = np.zeros((d, d), dtype=np.complex128)
    for coeff, ops in ham.terms:
        if not ops:
            out += coeff * np.eye(d)
            continue
        local = PAULI[ops[0][1]]
        for _, letter in ops[1:]:
            local = np.kron(local, PAULI[letter])
        out += coeff * embed_operator(local, tuple(s for s, _ in ops), ham.sites)
    if float(np.max(np.abs(out.imag))) == 0.0:
        return np.ascontiguousarray(out.real)
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_bitmask_matrix_equals_kron_build(seed):
    """Random custom Hamiltonians up to six sites, with Y letters (complex H)
    and identity terms, against the kron/embed_operator assembly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    terms = []
    for _ in range(int(rng.integers(0, 9))):
        sites = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        terms.append((float(rng.normal()), tuple((int(s), "XYZ"[rng.integers(3)]) for s in sites)))
    ham = SpinHamiltonian(n, tuple(terms))
    got = ham.to_matrix()
    expected = _kron_reference(ham)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------


def test_gibbs_infinite_temperature_is_maximally_mixed():
    rho = gibbs_state(build_tfim(3, 1.0), 0.0)
    assert np.allclose(rho.matrix, np.eye(8) / 8.0, atol=1e-14)


def test_gibbs_zero_temperature_projects_on_ground_state():
    ham = build_tfim(2, 1.3)
    w, v = np.linalg.eigh(ham.to_matrix())
    ground = np.outer(v[:, 0], v[:, 0].conj())
    rho = gibbs_state(ham, 1e4)
    assert np.max(np.abs(rho.matrix - ground)) < 1e-8


def test_infinite_beta_weights_the_ground_state_alone():
    """At beta = inf the Gibbs weights are one-hot on the ground state, with
    no nan and no warning, and the routes that read them agree with a beta
    large enough for every excited weight to underflow to 0.  The
    eigenbasis chi_E rejects beta*omega past the float range, as it does
    wherever that product overflows."""
    eig = ThermalEigensystem.of(build_tfim(4, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = eig.weights(math.inf)
        marginal = eig.marginal(math.inf, (0, 1)).matrix
        factors = list(eig.projected_factors(math.inf, 1))
        with pytest.raises(NumericalConsistencyError, match="not finite"):
            chi2_E_eigenbasis(eig, math.inf, eig.rotate_x(1))
    expected = np.zeros(16)
    expected[np.argmin(eig.energies)] = 1.0
    assert np.array_equal(p, expected)
    assert np.array_equal(eig.weights(1e4), expected)
    assert np.array_equal(marginal, eig.marginal(1e4, (0, 1)).matrix)
    assert abs(np.trace(marginal) - 1.0) <= 1e-12
    for (a, weight, gram), (b, weight_large, gram_large) in zip(factors, eig.projected_factors(1e4, 1), strict=True):
        assert (a, weight) == (b, weight_large)
        assert np.array_equal(gram, gram_large)
    assert abs(sum(weight for _, weight, _ in factors) - 1.0) <= 1e-12


def test_gibbs_commutes_with_hamiltonian():
    ham = build_tfim(3, 0.8)
    h = ham.to_matrix()
    rho = gibbs_state(ham, 2.5)
    comm = h @ rho.matrix - rho.matrix @ h
    assert np.max(np.abs(comm)) < 1e-12


def test_gibbs_free_energy_monotonicity():
    """S(rho_beta) decreases with beta; energy decreases as well."""
    ham = build_tfim(3, 1.0)
    h = ham.to_matrix()
    entropies = []
    energies = []
    for beta in (0.2, 0.5, 1.0, 2.0, 4.0):
        rho = gibbs_state(ham, beta)
        entropies.append(von_neumann_entropy(rho))
        energies.append(float(np.trace(h @ rho.matrix).real))
    assert all(b < a for a, b in zip(entropies, entropies[1:]))
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_gibbs_rejects_negative_beta():
    with pytest.raises(ValueError):
        gibbs_state(build_tfim(2, 1.0), -0.1)


def test_gibbs_with_precomputed_decomposition():
    ham = build_tfim(2, 0.6)
    w, v = np.linalg.eigh(ham.to_matrix())
    a = gibbs_state(ham, 1.7)
    b = gibbs_state(ThermalEigensystem(w, v, ham.sites), 1.7)
    assert trace_distance(a, b) < 1e-14


# ---------------------------------------------------------------------------
# Z2 parity blocks
# ---------------------------------------------------------------------------


def _parity_symmetric_model(rng, n=None):
    """Random custom model on n sites (1 to 6 when not given) whose terms
    each carry an even number of Z/Y letters, so that H commutes with the
    global flip ∏X."""
    n = int(rng.integers(1, 7)) if n is None else n
    terms = []
    for _ in range(int(rng.integers(1, 9))):
        sites = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        letters = ["XYZ"[rng.integers(3)] for _ in sites]
        z_or_y = [i for i, letter in enumerate(letters) if letter != "X"]
        if len(z_or_y) % 2:
            letters[z_or_y[-1]] = "X"
        terms.append((float(rng.normal()), tuple(zip((int(s) for s in sites), letters))))
    if n >= 3 and rng.integers(2):
        a, b, c = (int(s) for s in rng.choice(n, size=3, replace=False))
        terms.append((float(rng.normal()), ((a, "X"), (b, "Y"), (c, "Z"))))  # complex H
    return SpinHamiltonian(n, tuple(terms))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_parity_blocks_match_full_eigh(seed):
    rng = np.random.default_rng(seed)
    ham = _parity_symmetric_model(rng)
    h = ham.to_matrix()
    assert np.array_equal(h, h[::-1, ::-1])
    eig = ThermalEigensystem.of(ham)
    w, v = np.linalg.eigh(h)
    e, vec = eig.energies, eig.vectors
    assert vec.dtype == v.dtype
    assert np.all(np.diff(e) >= 0)
    assert np.max(np.abs(e - w)) < 1e-12
    assert np.linalg.norm(h @ vec - vec * e) < 1e-12
    assert np.linalg.norm(vec.conj().T @ vec - np.eye(len(w))) < 1e-12
    beta = float(rng.uniform(0.0, 3.0))
    got = gibbs_state(eig, beta).matrix
    expected = gibbs_state(ThermalEigensystem(w, v, ham.sites), beta).matrix
    assert np.max(np.abs(got - expected)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_parity_from_the_terms(seed):
    """Terms that each carry an even number of Z and Y letters make H
    centrosymmetric, and the blocks built from them are A + s·CJ of H.  One
    odd term sends the model to the full-space eigh."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    ham = _parity_symmetric_model(rng, n)
    h = ham.to_matrix()
    assert ham.flip_symmetric
    assert np.array_equal(h, h[::-1, ::-1])
    m = h.shape[0] // 2
    for sign in (1, -1):
        block = ham.sector_block(sign)
        assert np.max(np.abs(block - (h[:m, :m] + sign * h[:m, m:][:, ::-1]))) <= 1e-15
    letters = ["XYZ"[rng.integers(3)] for _ in range(int(rng.integers(1, n + 1)))]
    if sum(letter != "X" for letter in letters) % 2 == 0:
        letters[0] = "Z" if letters[0] == "X" else "X"  # one Z/Y letter more or fewer
    sites = (int(s) for s in rng.choice(n, size=len(letters), replace=False))
    odd = SpinHamiltonian(n, ham.terms + ((float(rng.normal()), tuple(zip(sites, letters))),))
    assert not odd.flip_symmetric
    with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as counted:
        ThermalEigensystem.of(odd)
    assert [call.args[0].shape[0] for call in counted.call_args_list] == [2**n]


def test_tfim_sectors_are_built_without_the_matrix():
    with mock.patch.object(SpinHamiltonian, "to_matrix") as to_matrix:
        eig = ThermalEigensystem.of(build_tfim(8, 0.9))
    assert to_matrix.call_count == 0
    assert len(eig.sectors) == 2


def test_matrix_input_is_diagonalized_in_full(eigh_dims):
    """A Hamiltonian given as a matrix is diagonalized as it stands, even
    when it commutes with ∏X."""
    eig = ThermalEigensystem.of(build_tfim(5, 0.9).to_matrix())
    assert eigh_dims == [32]
    assert len(eig.sectors) == 1


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sector_blocks_match_assembled_vectors(seed):
    """Each sector embeds to eigenvectors of H, and X_site is block-diagonal
    over the sectors with the blocks that rotate_x returns."""
    rng = np.random.default_rng(seed)
    ham = _parity_symmetric_model(rng)
    h = ham.to_matrix()
    eig = ThermalEigensystem.of(ham)
    site = int(rng.integers(ham.n_sites))
    x_full = embed_operator(X, (site,), ham.sites)
    columns = [sector.embed(sector.vectors) for sector in eig.sectors]
    for i, (sector, col) in enumerate(zip(eig.sectors, columns)):
        assert np.linalg.norm(h @ col - col * sector.energies) < 1e-12
        for j, other in enumerate(columns):
            block = col.conj().T @ x_full @ other
            expected = eig.rotate_x(site)[i] if i == j else 0.0
            assert np.max(np.abs(block - expected)) < 1e-12


def _mirror_symmetric_model(rng):
    """Random ∏X-symmetric model made symmetric under the reflection
    j ↔ n−1−j by adding each term's mirror image with the same coefficient.
    The coefficients are dyadic, so every sum in the built H is exact and the
    blocks are symmetric bit for bit."""
    n = int(rng.integers(2, 8))
    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        sites = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        letters = ["XYZ"[rng.integers(3)] for _ in sites]
        z_or_y = [i for i, letter in enumerate(letters) if letter != "X"]
        if len(z_or_y) % 2:
            letters[z_or_y[-1]] = "X"
        ops = tuple(sorted(zip((int(s) for s in sites), letters)))
        coeff = float(rng.integers(-8, 9)) / 8.0
        for term in (ops, tuple(sorted((n - 1 - s, letter) for s, letter in ops))):
            terms[term] = coeff
    if n >= 3 and rng.integers(2):
        ops = ((0, "X"), (1, "Y"), (2, "Z"))  # with its mirror image, a complex H
        terms[ops] = terms[tuple(sorted((n - 1 - s, letter) for s, letter in ops))] = 0.25
    return SpinHamiltonian(n, tuple((coeff, ops) for ops, coeff in terms.items()))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_reflection_blocks_match_full_eigh(seed):
    rng = np.random.default_rng(seed)
    ham = _mirror_symmetric_model(rng)
    h = ham.to_matrix()
    with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as counted:
        eig = ThermalEigensystem.of(ham)
    m = h.shape[0] // 2
    # Both parity blocks were split in two.
    dims = [call.args[0].shape[0] for call in counted.call_args_list]
    assert len(dims) == 4 and sum(dims) == 2 * m
    w, v = np.linalg.eigh(h)
    e, vec = eig.energies, eig.vectors
    assert vec.dtype == h.dtype
    assert np.all(np.diff(e) >= 0)
    assert np.max(np.abs(e - w)) < 1e-12
    assert np.linalg.norm(h @ vec - vec * e) < 1e-12
    assert np.linalg.norm(vec.conj().T @ vec - np.eye(len(w))) < 1e-12
    beta = float(rng.uniform(0.0, 3.0))
    got = gibbs_state(eig, beta).matrix
    expected = gibbs_state(ThermalEigensystem(w, v, ham.sites), beta).matrix
    assert np.max(np.abs(got - expected)) < 1e-12


def _gathered_half(block, n, sign, t):
    """A reflection half gathered from the sector block B: the entries
    c_a c_a' (B[a, a'] + t sigma_a' B[a, perm(a')]) over the half's basis
    states, c = 1 on pairs and 1/sqrt(2) on fixed states."""
    basis = reflection_basis(n, sign)
    rows, partners, sigma = basis.half(t)
    half = block[np.ix_(rows, rows)]
    partner = block[np.ix_(rows, partners)]
    partner *= t * sigma
    half += partner
    scale = np.ones(rows.size)
    scale[basis.pairs.size:] = math.sqrt(0.5)
    half *= scale[:, None]
    half *= scale
    return half


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_half_blocks_from_the_terms_match_the_sector_block(seed):
    """Each half folded from the Pauli terms equals the half gathered from
    the sector block, exactly: the coefficients are dyadic.  The symmetry
    is read from the terms; a mirror-breaking term is refused."""
    rng = np.random.default_rng(seed)
    ham = _mirror_symmetric_model(rng)
    assert ham.mirror_symmetric
    for sign in (1, -1):
        block = ham.sector_block(sign)
        for t in (1, -1):
            got = ham.half_block(sign, t)
            expected = _gathered_half(block, ham.n_sites, sign, t)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
    breaking = SpinHamiltonian(ham.n_sites, ham.terms + ((0.5, ((0, "X"),)),))
    assert not breaking.mirror_symmetric
    with pytest.raises(ValueError, match="symmetric"):
        breaking.half_block(1, 1)


def _scatter_halves(m, halves):
    """The sector's eigenvectors as they were written back from the halves
    (t, basis states, energies, eigenvectors) into one m x m block, columns
    in ascending energy."""
    basis = halves[0][1]
    pairs, perm, sigma = basis.pairs, np.zeros(m, dtype=int), np.ones(m)
    perm[pairs], perm[basis.partners] = basis.partners, pairs
    sigma[pairs] = sigma[basis.partners] = basis.sigma
    vectors = np.zeros((m, m), dtype=np.result_type(*(y for _, _, _, y in halves)))
    energies = np.concatenate([w for _, _, w, _ in halves])
    order = np.argsort(energies, kind="stable")
    rank = np.argsort(order)
    start = 0
    for t, basis, w, y in halves:
        rows = basis.half(t)[0]
        cols = rank[start:start + w.size]
        start += w.size
        paired = y[:pairs.size] * math.sqrt(0.5)
        vectors[np.ix_(pairs, cols)] = paired
        vectors[np.ix_(perm[pairs], cols)] = (t * sigma[pairs])[:, None] * paired
        vectors[np.ix_(rows[pairs.size:], cols)] = y[pairs.size:]
    return energies[order], vectors


@pytest.mark.parametrize("n, g", [(6, 0.8), (7, 1.3), (10, 1.0)])
def test_reflection_halves_assemble_bit_equal_to_scatter(n, g):
    """From the same halves, the eigenvectors that ParitySector.vectors
    assembles from its stack hold the bits of the scatter into an m x m
    block, and so do the rows it reads for the run path."""
    ham = build_tfim(n, g)
    eig = ThermalEigensystem.of(ham)
    m = 2 ** (n - 1)
    for sector in eig.sectors:
        halves = []
        for t in (1, -1):
            w, y = np.linalg.eigh(ham.half_block(sector.sign, t))
            halves.append((t, reflection_basis(n, sector.sign), w, y))
        energies, vectors = _scatter_halves(m, halves)
        assert energies.tobytes() == sector.energies.tobytes()
        assert sector.vectors.tobytes() == vectors.tobytes()
        rows = np.arange(m).reshape(8, -1)
        scale = np.sqrt(eig.sector_weights(1.5)[0 if sector.sign == 1 else 1])
        assert np.array_equal(sector.row_reader(scale)(rows), vectors[rows] * scale)


def test_mirror_symmetry_is_read_from_the_terms():
    """Summed coefficients per Pauli string decide, in any term order."""
    tfim = build_tfim(5, 0.6)
    assert tfim.mirror_symmetric
    assert SpinHamiltonian(5, tuple(reversed(tfim.terms))).mirror_symmetric
    split = SpinHamiltonian(3, ((0.25, ((0, "X"),)), (0.25, ((0, "X"),)), (0.5, ((2, "X"),))))
    assert split.mirror_symmetric
    assert not SpinHamiltonian(3, ((0.5, ((0, "X"),)), (0.25, ((2, "X"),)))).mirror_symmetric
    assert SpinHamiltonian(3, ((0.0, ((0, "Z"),)),)).mirror_symmetric


@pytest.fixture
def eigh_dims(monkeypatch):
    dims = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        dims.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return dims


def test_tfim_is_diagonalized_in_two_parity_blocks(eigh_dims):
    """Each parity block of the mirror-symmetric chain is split again by the
    reflection.  Its fixed sector states are the 4 palindromes and the 4
    anti-palindromes below m = 32; they carry R = +1 in sector + (20 + 12),
    and the anti-palindromes carry R = −1 in sector − (16 + 16)."""
    eig = ThermalEigensystem.of(build_tfim(6, 0.8))
    assert eigh_dims == [20, 12, 16, 16]
    assert eig.vectors.shape == (64, 64)


def test_mirror_breaking_field_keeps_one_eigh_per_parity_block(eigh_dims):
    tfim = build_tfim(6, 0.8)
    ham = SpinHamiltonian(6, tfim.terms + ((0.3, ((0, "X"),)),))
    eig = ThermalEigensystem.of(ham)
    assert eigh_dims == [32, 32]
    h = ham.to_matrix()
    assert np.linalg.norm(h @ eig.vectors - eig.vectors * eig.energies) < 1e-12


def test_complex_parity_symmetric_model_uses_blocks(eigh_dims):
    ham = SpinHamiltonian(3, ((0.7, ((0, "X"), (1, "Y"), (2, "Z"))), (-0.4, ((1, "X"),))))
    eig = ThermalEigensystem.of(ham)
    assert eigh_dims == [4, 4]
    assert eig.vectors.dtype == np.complex128
    h = ham.to_matrix()
    assert np.linalg.norm(h @ eig.vectors - eig.vectors * eig.energies) < 1e-12


def test_z_field_breaks_parity_and_keeps_full_eigh(eigh_dims):
    tfim = build_tfim(6, 0.8)
    ham = SpinHamiltonian(6, tfim.terms + ((0.3, ((2, "Z"),)),))
    eig = ThermalEigensystem.of(ham)
    assert eigh_dims == [64]
    w, _ = np.linalg.eigh(ham.to_matrix())
    assert np.max(np.abs(eig.energies - w)) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=3, max_value=9),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.01, max_value=20.0),
    st.data(),
)
def test_prefix_marginal_reduces_to_every_grid_marginal(n, g, beta, data):
    """With the probe at or left of the centre, the marginal on the probe
    followed by every site left of it reduces to each grid point's marginal
    (the probe, then the prefix 0 … site − x), which the direct route forms
    on its own."""
    site = data.draw(st.integers(min_value=1, max_value=(n - 1) // 2), label="site")
    eig = ThermalEigensystem.of(build_tfim(n, g))
    prefix = eig.marginal(beta, (site,) + tuple(range(site)))
    for x in range(1, site + 1):
        keep = (site,) + tuple(range(site - x + 1))
        reduced = prefix.reduced(keep)
        direct = eig.marginal(beta, keep)
        assert reduced.sites == direct.sites == keep
        assert np.max(np.abs(reduced.matrix - direct.matrix)) < 1e-13
        for rho in (reduced, direct):
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-13
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-13


# ---------------------------------------------------------------------------
# dynamical correlators
# ---------------------------------------------------------------------------


def obs_x0(n):
    return embed_operator(X, (0,), tuple(range(n)))


def test_lines_total_weight_is_static_variance():
    ham = build_tfim(3, 1.1)
    beta = 1.4
    obs = obs_x0(3)
    lines = dynamical_correlation(ham, beta, obs)
    rho = gibbs_state(ham, beta)
    var = np.trace(obs @ obs @ rho.matrix).real - np.trace(obs @ rho.matrix).real ** 2
    assert lines.total_weight() == pytest.approx(var, abs=1e-12)


def test_lines_weights_nonnegative():
    lines = dynamical_correlation(build_tfim(3, 0.9), 2.0, obs_x0(3))
    assert np.all(lines.weights >= 0.0)


def test_lines_detailed_balance():
    """Paired lines at ±omega carry weights related by e^{−beta omega}."""
    beta = 1.9
    lines = dynamical_correlation(build_tfim(2, 1.2), beta, obs_x0(2))
    freqs, wts = lines.frequencies, lines.weights
    for f, w in zip(freqs, wts):
        if f <= 1e-10 or w < 1e-14:
            continue
        j = int(np.argmin(np.abs(freqs + f)))
        assert abs(freqs[j] + f) < 1e-8
        assert wts[j] == pytest.approx(w * math.exp(-beta * f), rel=1e-9)


def test_time_samples_match_heisenberg_oracle():
    """C(t) from spectral lines against direct expm evolution."""
    ham = build_tfim(2, 0.8)
    h = ham.to_matrix()
    beta = 1.1
    obs = obs_x0(2)
    rho = gibbs_state(ham, beta).matrix
    times = np.array([0.0, 0.3, 1.7, -2.2])
    got = dynamical_correlation(ham, beta, obs, times=times)
    mean = np.trace(obs @ rho).real
    for t, val in zip(times, got):
        u = expm(1j * h * t)
        o_t = u @ obs @ u.conj().T
        expected = np.trace(o_t @ obs @ rho) - mean * mean
        assert val == pytest.approx(complex(expected), abs=1e-10)


def test_identity_observable_has_no_connected_weight():
    lines = dynamical_correlation(build_tfim(2, 1.0), 1.0, np.eye(4))
    assert lines.total_weight() == pytest.approx(0.0, abs=1e-12)


def test_degenerate_frequencies_are_merged():
    """A field-only Hamiltonian has massively degenerate gaps."""
    ham = SpinHamiltonian(2, ((1.0, ((0, "Z"),)), (1.0, ((1, "Z"),))))
    lines = dynamical_correlation(ham, 0.7, obs_x0(2))
    # transitions only flip site 0: omega = ±2, plus the empty static group
    nonzero = lines.frequencies[lines.weights > 1e-14]
    assert np.allclose(np.sort(nonzero), [-2.0, 2.0], atol=1e-9)


def _merge_lines_loop(freqs, weights, atol):
    """Sequential grouping: sort, chain neighbours within atol, weight-average."""
    order = np.argsort(freqs)
    freqs, weights = freqs[order], weights[order]
    out_f, out_w = [], []
    i = 0
    while i < freqs.size:
        j = i + 1
        while j < freqs.size and freqs[j] - freqs[j - 1] <= atol:
            j += 1
        out_w.append(float(weights[i:j].sum()))
        out_f.append(float(np.average(freqs[i:j], weights=np.maximum(weights[i:j], 1e-300))))
        i = j
    return np.array(out_f), np.array(out_w)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_merged_lines_match_sequential_merge(seed):
    """Near-degenerate chains included; weights above 1e-300 as the callers keep them."""
    rng = np.random.default_rng(seed)
    base = rng.choice([-2.0, -0.5, 0.0, 0.7, 3.0], size=int(rng.integers(1, 60)))
    freqs = base + rng.choice([0.0, 1e-12, 3e-11, 1e-3], size=base.size)
    weights = rng.uniform(0.0, 1.0, size=base.size) + 1e-200
    lines = SpectralLines.merged(freqs, weights, 1e-10)
    ref_f, ref_w = _merge_lines_loop(freqs, weights, 1e-10)
    np.testing.assert_allclose(lines.frequencies, ref_f, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(lines.weights, ref_w, rtol=1e-13, atol=0.0)


def test_spectral_lines_validation_and_sampling():
    with pytest.raises(ValueError):
        SpectralLines(np.array([1.0, 2.0]), np.array([1.0]))
    lines = SpectralLines(np.array([0.0, 1.5]), np.array([0.25, 0.5]))
    vals = lines.sample(np.array([0.0]))
    assert vals[0] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# finite-difference oracle plumbing
# ---------------------------------------------------------------------------


def test_oracle_rejects_bad_mu_grids():
    ham = build_tfim(2, 1.0)
    with pytest.raises(ValueError):
        holevo_finite_difference(ham, 1.0, X, (0,), (1,), mu_grid=(0.02, 0.011, 0.005))
    with pytest.raises(ValueError):
        holevo_finite_difference(ham, 1.0, X, (0,), (1,), mu_grid=(0.02, 0.01))
    with pytest.raises(ValueError):
        holevo_finite_difference(ham, 1.0, X, (0,), (1,), mu_grid=(0.4, 0.2, 0.1))


def test_oracle_reports_samples_and_uncertainty():
    est = holevo_finite_difference(build_tfim(2, 1.0), 1.2, X, (0,), "env")
    assert len(est.samples) == 4
    assert est.uncertainty < 1e-3 * abs(est.value) + 1e-12
    mus = [m for m, _ in est.samples]
    assert mus == sorted(mus, reverse=True)
