"""The memory shape of the dense run path, measured with tracemalloc.

Each peak is the most memory the numpy arrays of one call hold at once above
what was held before it, in units of one m×m float64 sector block of the
n = 10 TFIM (m = 2⁹, 2 MiB).  These are counts of array allocations, so
they do not depend on the machine.
"""

import tracemalloc

import pytest

from depthbound.models import ThermalEigensystem, build_tfim
from depthbound.perturbative import chi2_E_eigenbasis
from depthbound.purification import projective_chi_E_factors
from depthbound.states import entropy_from_spectrum

N = 10
BLOCK = 2 ** (2 * (N - 1)) * 8
BETA = 2.0
SITE = 4


def peak_blocks(call):
    """The call's result and its peak of traced memory, in blocks."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / BLOCK


@pytest.fixture(scope="module")
def eig():
    return ThermalEigensystem.of(build_tfim(N, 1.0))


def test_eigensystem_never_holds_h():
    """The sector blocks are built from the terms, one at a time: H (four
    blocks) is never formed."""
    _, peak = peak_blocks(lambda: ThermalEigensystem.of(build_tfim(N, 1.0)))
    assert peak <= 4.5


@pytest.mark.parametrize("keep", [(SITE, 0, 1, 2), (SITE, 6, 7, 8)], ids=["site-0-kept", "site-0-traced"])
def test_marginal_forms_no_embedded_w(eig, keep):
    """No d×m W = embed(x√p) and no transposed copy of it."""
    _, peak = peak_blocks(lambda: eig.marginal(BETA, keep))
    assert peak <= 2.5


def test_projective_chi_E_holds_one_factor_at_a_time(eig):
    entropy = entropy_from_spectrum(eig.weights(BETA))
    _, peak = peak_blocks(lambda: projective_chi_E_factors(eig.projected_factors(BETA, SITE), entropy))
    assert peak <= 2.5


def test_weak_chi_E_streams_row_chunks(eig):
    blocks = eig.rotate_x(SITE)
    _, peak = peak_blocks(lambda: chi2_E_eigenbasis(eig, BETA, blocks))
    assert peak <= 2.5
