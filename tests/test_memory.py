"""The memory shape of the dense and free-fermion run paths, measured with
tracemalloc.

Each peak is the most memory the numpy arrays of one call hold at once above
what was held before it.  Dense peaks are in units of one m×m float64
sector block of the n = 10 TFIM (m = 2⁹, 2 MiB), or of the marginal a χ_B
reads; free-fermion peaks in units of one (2n)×(2n) float64 block or of one
float64 array over the probe's weak-X lines.  These are counts of array
allocations, so they do not depend on the machine.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from depthbound.backends import FermionModel
from depthbound.fermion import (
    _norm_below,
    bdg_diagonalize,
    chi2_E_quadratic,
    ground_state_covariance,
    thermal_covariance,
    weak_x_lines,
)
from depthbound.models import ThermalEigensystem, build_tfim
from depthbound.perturbative import chi2_E_eigenbasis, chi2_E_spectral, chi2_system
from depthbound.purification import projective_chi_E_factors
from depthbound.states import entropy_from_spectrum

N = 10
BLOCK = 2 ** (2 * (N - 1)) * 8
BETA = 2.0
SITE = 4


def peak_blocks(call, block=BLOCK):
    """The call's result and its peak of traced memory, in ``block`` bytes."""
    result, peak, _ = traced_blocks(call, block)
    return result, peak


def traced_blocks(call, block=BLOCK):
    """The call's result, its peak of traced memory and the memory its
    result still holds, both in ``block`` bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - base) / block, (held - base) / block


@pytest.fixture(scope="module")
def eig():
    return ThermalEigensystem.of(build_tfim(N, 1.0))


def test_eigensystem_never_holds_h():
    """Each reflection half is built from the terms and diagonalized on its
    own: one half's block and its eigenvectors (a quarter block each) on top
    of the eigenvectors already kept, those of the other sector's halves
    (half a block) and of this sector's first half.  Neither H (four
    blocks) nor a sector block (one) is formed."""
    _, peak = peak_blocks(lambda: ThermalEigensystem.of(build_tfim(N, 1.0)))
    assert peak <= 1.5


def test_eigensystem_holds_the_reflection_halves(eig):
    """What an eigensystem keeps: each half's eigenvectors as its own block
    (about one block for the four halves at n = 10) and its energies, not
    two m×m sector blocks.  The reflection bases and the halves' maps are
    shared by every eigensystem of N sites; the fixture has built them."""
    _, _, held = traced_blocks(lambda: ThermalEigensystem.of(build_tfim(N, 1.0)))
    assert held <= 1.05


@pytest.mark.parametrize("keep", [(SITE, 0, 1, 2), (SITE, 6, 7, 8)], ids=["site-0-kept", "site-0-traced"])
def test_marginal_forms_no_embedded_w(eig, keep):
    """No d×m W = embed(x√p) and no transposed copy of it."""
    _, peak = peak_blocks(lambda: eig.marginal(BETA, keep))
    assert peak <= 2.5


def test_projective_chi_E_holds_one_factor_at_a_time(eig):
    entropy = entropy_from_spectrum(eig.weights(BETA))
    _, peak = peak_blocks(lambda: projective_chi_E_factors(eig.projected_factors(BETA, SITE), entropy))
    assert peak <= 2.5


N_ODD = 11
SITE_ODD = 5  # the mirror-fixed centre


def test_projective_chi_E_at_the_mirror_fixed_site_works_half_by_half():
    """At the centre of an odd chain X commutes with the reflection: each
    half's eigenvectors (a quarter block, scaled in place) give its own
    factors of about half a projected sector's dimension, so the peak stays
    under one of the n = 11 blocks."""
    eig = ThermalEigensystem.of(build_tfim(N_ODD, 1.0))
    entropy = entropy_from_spectrum(eig.weights(BETA))
    block = 2 ** (2 * (N_ODD - 1)) * 8
    _, peak = peak_blocks(lambda: projective_chi_E_factors(eig.projected_factors(BETA, SITE_ODD), entropy), block)
    assert peak <= 0.6


@pytest.mark.parametrize("n, site", [(N, SITE), (N_ODD, SITE_ODD)], ids=["n10-site4", "n11-mirror-fixed"])
def test_rotate_x_writes_each_block_pair_in_place(n, site):
    """X_site in the eigenbasis: the two sectors' m×m blocks it returns and,
    one block pair at a time, a half's gathered X images (a quarter block)
    and the second term added to them; no copy of a half's eigenvectors and
    no scatter temporary.  2.54 blocks at n = 10 and 2.28 at the centre of
    n = 11, where X maps each half onto itself."""
    eig = ThermalEigensystem.of(build_tfim(n, 1.0))
    _, peak = peak_blocks(lambda: eig.rotate_x(site), block=2 ** (2 * (n - 1)) * 8)
    assert peak <= 2.75


def test_weak_chi_E_streams_row_chunks(eig):
    blocks = eig.rotate_x(SITE)
    _, peak = peak_blocks(lambda: chi2_E_eigenbasis(eig, BETA, blocks))
    assert peak <= 2.5


def test_chi2_system_reads_the_marginal_in_place(eig):
    """The marginal already on the probe and region B, in that order, is
    not re-formed: what is left is xi and sigma (a quarter of it each),
    sigma's eigenvectors, and an eighth of the rows of xi in that basis at
    a time; neither the Lieb map's output nor its rotation back is formed."""
    region = tuple(range(N - 2))
    rho = eig.marginal(BETA, (N - 2,) + region)
    _, peak = peak_blocks(lambda: chi2_system(rho, np.array([[0.0, 1.0], [1.0, 0.0]]), (N - 2,), region),
                          block=rho.matrix.nbytes)
    assert peak <= 1.0


# Free fermions: n = 101 at the centre, 20301 lines.
FF_N = 101
FF_SITE = 50
FF_BLOCK = (2 * FF_N) ** 2 * 8


@pytest.fixture(scope="module")
def ff_spectrum():
    return bdg_diagonalize(FF_N, 1.0)


FF_LINES = 8 * FF_N * (2 * FF_N - 1)  # one float64 array over the probe's lines


def test_bdg_diagonalize_frees_the_schur_factors():
    """The Schur form runs in place on h, so T takes h's block; T is freed
    before the checks run on Z in bands, against bands of h read off its
    off-diagonals, and Z once the whole Q is gathered from it a band of
    rows at a time.  So two blocks are held at any time, plus LAPACK's work
    array and a band or two: 2.21 blocks here, 2.15 at n = 301.  A small
    chain first loads scipy's LAPACK extension, whose load is no array of
    the call."""
    bdg_diagonalize(2, 1.0)
    _, peak = peak_blocks(lambda: bdg_diagonalize(FF_N, 1.0), block=FF_BLOCK)
    assert peak <= 2.25


def test_bdg_diagonalize_gathers_only_the_kept_rows():
    """With the centre probe's rows of Q (2·151 of 602 at n = 301), the
    Schur form's T and Z are the peak, 2.06 blocks, and the spectrum keeps
    half a block: no full Q and no h is allocated."""
    n = 301
    bdg_diagonalize(2, 1.0)
    spectrum, peak, held = traced_blocks(lambda: bdg_diagonalize(n, 1.0, rows=302), block=(2 * n) ** 2 * 8)
    assert spectrum.q.shape == (302, 2 * n)
    assert peak <= 2.15
    assert held <= 0.55


def test_norm_guard_holds_the_gram_matrix_and_its_factor():
    """The Cholesky guard on the n = 301 thermal covariance: the Gram matrix,
    overwritten by limit² I − ΓᵀΓ, and the factor, which cannot reuse it.
    The work copy numpy's Cholesky factors in is not an array and is not
    traced."""
    n = 301
    gamma = thermal_covariance(bdg_diagonalize(n, 1.0), 2.0).gamma
    verdict, peak = peak_blocks(lambda: _norm_below(gamma, 1.0 + 1e-10), block=(2 * n) ** 2 * 8)
    assert verdict
    assert peak <= 2.5


def test_fermion_model_holds_no_line_array():
    """The model keeps the energies and the 2·(site + 1) rows of Q that
    its β contexts read, half a block at the centre, and no array with one
    entry per line: no h, no full Q and none of a line table's 24 B per
    line.  A small chain first loads scipy's LAPACK extension."""
    bdg_diagonalize(2, 1.0)
    model, _, held = traced_blocks(lambda: FermionModel(FF_N, 1.0, FF_SITE), block=FF_BLOCK)
    assert held <= 0.55
    arrays = {name: value.shape for obj in (model, model.spectrum)
              for name, value in vars(obj).items() if isinstance(value, np.ndarray)}
    assert arrays == {"q": (2 * (FF_SITE + 1), 2 * FF_N), "energies": (FF_N,)}


def _random_spectrum(n):
    """What χ_E reads of a spectrum, with random energies and Q rows: its
    memory does not depend on the values, and an n = 1001 Schur form would
    take seconds."""
    rng = np.random.default_rng(0)
    return SimpleNamespace(n_modes=n, energies=np.sort(rng.uniform(0.0, 4.0, n)), q=rng.normal(size=(2 * n, 2 * n)))


@pytest.mark.parametrize("n", [301, 1001])
def test_chi_E_holds_one_line_array(n):
    """One β's χ_E fills one array of the line terms; beside it, a band of
    n/16 modes holds a few n/16 × n arrays, and numpy's iterator its fixed
    buffers: 1.28 line arrays at n = 301, 1.17 at n = 1001."""
    spectrum = bdg_diagonalize(n, 1.0) if n == 301 else _random_spectrum(n)
    _, peak = peak_blocks(lambda: chi2_E_quadratic(spectrum, 2.0, n // 2), block=8 * n * (2 * n - 1))
    assert peak <= 1.3


def test_kappa_fit_covariance_stays_under_one_block():
    """The κ fit's Γ of sites 0 … centre at n = 301: M, U and Vᵀ (a quarter
    block each) at the SVD, then U Vᵀ, then the 302 × 302 Γ with the Gram
    matrix and factor of its norm guard; h and the whole chain's Γ are
    never formed.  0.82 blocks."""
    n = 301
    cov, peak = peak_blocks(lambda: ground_state_covariance(n, 1.0, prefix=151), block=(2 * n) ** 2 * 8)
    assert cov.gamma.shape == (302, 302)
    assert peak < 1.0


def test_chi2_E_spectral_forms_f_beta_in_place():
    size = FF_N * (2 * FF_N - 1)
    lines = (np.linspace(-4.0, 4.0, size), np.random.default_rng(0).random(size))
    _, peak = peak_blocks(lambda: chi2_E_spectral(lines, 2.0), block=FF_LINES)
    assert peak <= 2.5


def test_weak_x_lines_holds_no_line_table(ff_spectrum):
    """The line kernel fills the frequencies and a copy of the weights a band
    at a time, with no table of strengths or Fermi-factor indices; the
    merge then holds those two arrays, their sorted copies, the group
    starts and the group sums: 7.40 line arrays, 7.0 at n = 301 and
    1001."""
    _, peak = peak_blocks(lambda: weak_x_lines(ff_spectrum, 2.0, FF_SITE), block=FF_LINES)
    assert peak <= 7.75
