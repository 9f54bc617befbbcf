"""Free-fermion backend: BdG spectra, covariances, Pfaffians, Wick lines."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from depthbound import _lapack, _openblas, fermion
from depthbound.checks import pfaffian_error
from depthbound.fermion import (
    MajoranaCovariance,
    _norm_below,
    _site_mode_amplitudes,
    bdg_diagonalize,
    chi2_E_quadratic,
    connected_xx,
    energy_expectation,
    gaussian_entropy,
    ground_state_covariance,
    majorana_couplings,
    many_body_energies,
    pfaffian,
    schur,
    string_x_expectation,
    thermal_covariance,
    weak_x_lines,
    x_expectation,
)
from depthbound.models import SpectralLines, ThermalEigensystem, build_tfim, dynamical_correlation, gibbs_state
from depthbound.perturbative import chi2_E_eigensum, chi2_E_spectral
from depthbound.states import NumericalConsistencyError, embed_operator, von_neumann_entropy

X = np.array([[0.0, 1.0], [1.0, 0.0]])
RNG = np.random.default_rng(8861)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def dense_reference(n, g, beta):
    ham = build_tfim(n, g)
    return ham, gibbs_state(ham, beta)


# ---------------------------------------------------------------------------
# single-particle problem
# ---------------------------------------------------------------------------


def test_couplings_antisymmetric_structure():
    h = majorana_couplings(4, 0.9)
    assert h.shape == (8, 8)
    assert np.allclose(h, -h.T, atol=0.0)
    # field term couples a site's own Majorana pair; bond term neighbors
    assert h[0, 1] == pytest.approx(2 * 0.9)
    assert h[1, 2] == pytest.approx(2.0)


def _couplings_by_difference(n, g):
    """h as it was built before: the upper entries, minus their transpose."""
    h = np.zeros((2 * n, 2 * n))
    for j in range(n):
        h[2 * j, 2 * j + 1] = 2.0 * g
    for j in range(n - 1):
        h[2 * j + 1, 2 * j + 2] = 2.0
    return h - h.T


@pytest.mark.parametrize("g", [0.0, -0.0, 0.9, -0.7, 1e308, -1e308])
@pytest.mark.parametrize("n", [2, 3, 41])
def test_couplings_rows_bit_equal_to_majorana_couplings(n, g):
    """The spectrum checks read h a band of rows at a time off its two
    off-diagonals; each band holds h's bits, signed zeros included."""
    h = majorana_couplings(n, g)
    bands = fermion._bands(2 * n) + [slice(j, j + 1) for j in range(2 * n)]
    for rows in bands:
        band = fermion._couplings_rows(n, g, rows)
        assert band.tobytes() == np.ascontiguousarray(h[rows]).tobytes()


@pytest.mark.parametrize("g", [0.0, -0.0, 0.9, -0.7, 1e308, -1e308])
@pytest.mark.parametrize("n", [2, 3, 41])
def test_couplings_bit_equal_to_difference_build(n, g):
    """h and its coupling block, each built alone, hold the bits of
    u − uᵀ, signed zeros included: at g = ±0 the field entries, and at
    negative g the signs below the diagonal.  h is in Fortran order."""
    ref = _couplings_by_difference(n, g)
    h = majorana_couplings(n, g)
    assert h.flags.f_contiguous
    assert np.array_equal(h, ref) and np.array_equal(np.signbit(h), np.signbit(ref))
    m = fermion._coupling_block(n, g)
    assert np.ascontiguousarray(ref[0::2, 1::2]).tobytes() == m.tobytes()


@pytest.mark.parametrize("n,g", [(2, 0.5), (3, 1.0), (5, 1.7)])
def test_bdg_reproduces_many_body_spectrum(n, g):
    """Occupation sums of mode energies give the full dense spectrum."""
    spec = bdg_diagonalize(n, g)
    dense = np.sort(np.linalg.eigvalsh(build_tfim(n, g).to_matrix()))
    free = np.sort(many_body_energies(spec))
    assert np.allclose(dense, free, atol=1e-10)


def test_bdg_canonical_form():
    spec = bdg_diagonalize(5, 1.2)
    assert np.all(spec.energies >= -1e-12)
    assert np.all(np.diff(spec.energies) >= -1e-12)
    q = spec.q
    assert np.allclose(q @ q.T, np.eye(10), atol=1e-12)
    t = np.zeros((10, 10))
    for k, e in enumerate(spec.energies):
        t[2 * k, 2 * k + 1] = e
        t[2 * k + 1, 2 * k] = -e
    assert np.allclose(q @ t @ q.T, majorana_couplings(5, 1.2), atol=1e-10)


def test_extreme_field_limits():
    # g = 0: decoupled bonds; one exact zero mode (free edge spin pair)
    spec0 = bdg_diagonalize(4, 0.0)
    assert spec0.energies[0] == pytest.approx(0.0, abs=1e-12)
    # g >> 1: mode energies approach 2g (paramagnet), bandwidth O(1)
    spec_big = bdg_diagonalize(4, 50.0)
    assert np.all(np.abs(spec_big.energies - 100.0) < 4.0)


def test_energy_expectation_matches_dense():
    for n, g, beta in [(4, 1.0, 0.7), (5, 0.6, 2.0)]:
        ham, rho = dense_reference(n, g, beta)
        dense_e = float(np.trace(ham.to_matrix() @ rho.matrix).real)
        free_e = energy_expectation(bdg_diagonalize(n, g), beta)
        assert free_e == pytest.approx(dense_e, rel=1e-9, abs=1e-10)


# ---------------------------------------------------------------------------
# the Schur form on scipy's LAPACK extension
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [0.0, -0.0, 0.5, 1.0, 1.5, -0.7, 2.0])
@pytest.mark.parametrize("n", [2, 3, 41, 301])
def test_schur_matches_scipy_linalg_bitwise(n, g):
    """scipy.linalg.schur stays the reference route: dgees' QR step alone
    (g ≠ 0) or dgees itself (g = ±0) gives the same T and Z, bit for bit,
    on a copy of h, which is left as it was in either memory order, and in
    h's own buffer, which T takes (bdg_diagonalize's route).  On the run
    paths' g the bytes match too, signed zeros included."""
    h = majorana_couplings(n, g)
    t_ref, z_ref = scipy.linalg.schur(h)
    for a in (h, np.ascontiguousarray(h)):
        kept = a.copy()
        t, z = schur(a)
        assert np.array_equal(a, kept) and not np.shares_memory(t, a)
        assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)
    t, z = schur(h, overwrite_a=True)
    assert np.shares_memory(t, h)
    assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)
    if g in (0.5, 1.0, 1.5):
        assert t.tobytes() == t_ref.tobytes() and z.tobytes() == z_ref.tobytes()


def _recording_lapack(monkeypatch):
    """Bind fermion's LAPACK routines through wrappers that record, in
    order, the name of each routine called."""
    calls = []
    routines = fermion._load_lapack()

    def recorded(name, routine):
        def call(*args):
            calls.append(name)
            return routine(*args)

        return call

    monkeypatch.setattr(fermion, "_lapack", tuple(map(recorded, ("dhseqr", "dgees"), routines)))
    return calls


@pytest.mark.parametrize(
    "g,routine",
    [(0.0, "dgees"), (-0.0, "dgees"), (1e140, "dgees"), (1.0, "dhseqr"), (-0.7, "dhseqr"), (1e-5, "dhseqr")],
)
def test_schur_runs_dgees_where_it_would_balance_or_scale(monkeypatch, g, routine):
    """After dgees' workspace query, the chain's h goes to dhseqr alone,
    except at g = ±0, where x₀ and p_{n−1} are isolated and dgebal permutes
    them, and past 2⁴⁵⁹, where dgees scales h: there dgees itself runs.
    Either way T and Z are scipy.linalg.schur's."""
    calls = _recording_lapack(monkeypatch)
    h = majorana_couplings(8, g)
    t, z = schur(h)
    assert calls == ["dgees", routine]
    t_ref, z_ref = scipy.linalg.schur(h)
    assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)


@pytest.mark.parametrize("hessenberg", [False, True])
def test_schur_of_a_general_matrix_matches_scipy_linalg(monkeypatch, hessenberg):
    """A dense matrix goes through dgees, and an upper Hessenberg one with
    no isolated row or column through dhseqr alone; both keep scipy's bits."""
    a = RNG.standard_normal((60, 60))
    if hessenberg:
        a = np.triu(a, -1)
    calls = _recording_lapack(monkeypatch)
    t, z = schur(a)
    assert calls == ["dgees", "dhseqr" if hessenberg else "dgees"]
    t_ref, z_ref = scipy.linalg.schur(a)
    assert t.tobytes() == t_ref.tobytes() and z.tobytes() == z_ref.tobytes()


@pytest.mark.parametrize("n,g", [(2, 0.0), (41, 0.5), (301, 1.0)])
def test_bdg_q_columns_bit_equal_to_schur_z_columns(n, g):
    """Q, gathered from Z a band of rows at a time, is C-ordered and each
    of its columns is a column of scipy.linalg.schur's Z, bit for bit."""
    q = bdg_diagonalize(n, g).q
    _, z_ref = scipy.linalg.schur(_couplings_by_difference(n, g))
    columns = {z_ref[:, j].tobytes() for j in range(2 * n)}
    assert q.flags.c_contiguous
    assert all(q[:, j].tobytes() in columns for j in range(2 * n))


@pytest.mark.parametrize("g", [0.0, -0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", [2, 41])
def test_bdg_kept_rows_bit_equal_to_the_leading_rows_of_q(n, g):
    """rows = 2r keeps Q's first 2r rows with their bits, in C order, for
    r = 1, the centre probe's prefix and the whole chain."""
    full = bdg_diagonalize(n, g)
    for r in sorted({1, (n - 1) // 2 + 1, n}):
        kept = bdg_diagonalize(n, g, rows=2 * r)
        assert kept.q.flags.c_contiguous and kept.q.shape == (2 * r, 2 * n)
        assert kept.q.tobytes() == full.q[: 2 * r].tobytes()
        assert kept.energies.tobytes() == full.energies.tobytes()


def test_bdg_kept_rows_bit_equal_at_n_301():
    full = bdg_diagonalize(301, 1.0)
    kept = bdg_diagonalize(301, 1.0, rows=302)
    assert kept.q.tobytes() == full.q[:302].tobytes()


@pytest.mark.parametrize("rows", [0, 3, 84])
def test_bdg_rejects_a_row_count_that_is_no_site_prefix(rows):
    with pytest.raises(ValueError, match="not an even count"):
        bdg_diagonalize(41, 1.0, rows=rows)


def _perturbed_schur(monkeypatch, perturb):
    """fermion.schur with ``perturb(t, z)`` applied to its factors."""
    original = fermion.schur

    def perturbed(h, overwrite_a=False):
        t, z = original(h, overwrite_a)
        perturb(t, z)
        return t, z

    monkeypatch.setattr(fermion, "schur", perturbed)


@pytest.mark.parametrize("rows", [None, 2])
def test_schur_vector_checks_reject_a_perturbed_vector(monkeypatch, rows):
    """The orthogonality check runs on all of Z, also rows of Q that the
    spectrum does not keep."""
    def perturb(t, z):
        z[-1, 0] += 1e-6

    _perturbed_schur(monkeypatch, perturb)
    with pytest.raises(NumericalConsistencyError, match="Q deviates from orthogonality by"):
        bdg_diagonalize(41, 1.0, rows)


@pytest.mark.parametrize("rows", [None, 2])
def test_schur_vector_checks_reject_a_wrong_energy(monkeypatch, rows):
    """An energy read off a perturbed T no longer reconstructs h."""
    def perturb(t, z):
        t[0, 1] *= 1.0 + 1e-6

    _perturbed_schur(monkeypatch, perturb)
    with pytest.raises(NumericalConsistencyError, match=r"spectrum does not reconstruct h \(error"):
        bdg_diagonalize(41, 1.0, rows)


def test_reads_past_the_kept_rows_are_rejected():
    """A spectrum with the rows of sites 0 … 4 forms their covariance and
    their mode amplitudes, and nothing further."""
    n, kept = 12, 5
    spectrum = bdg_diagonalize(n, 1.0, rows=2 * kept)
    full = bdg_diagonalize(n, 1.0)
    reads = [
        lambda: thermal_covariance(spectrum, 2.0),
        lambda: thermal_covariance(spectrum, 2.0, prefix=kept + 1),
        lambda: chi2_E_quadratic(spectrum, 2.0, kept),
        lambda: weak_x_lines(spectrum, 2.0, n - 1),
        lambda: _site_mode_amplitudes(spectrum, kept),
    ]
    for read in reads:
        with pytest.raises(ValueError, match="reads past the 10 rows of Q the spectrum keeps"):
            read()
    with pytest.raises(ValueError, match="site outside the chain"):
        chi2_E_quadratic(spectrum, 2.0, n)
    block = thermal_covariance(spectrum, 2.0, prefix=kept).gamma
    assert block.tobytes() == thermal_covariance(full, 2.0, prefix=kept).gamma.tobytes()
    assert chi2_E_quadratic(spectrum, 2.0, kept - 1) == chi2_E_quadratic(full, 2.0, kept - 1)


def _fresh_schur_routes(setup):
    """Run ``setup`` in a fresh process, then the Schur form of the n = 41
    chain, then import scipy.linalg; report the scipy modules the Schur
    form loaded and whether the two routes agree bit for bit."""
    code = (
        "import sys, importlib.machinery\n"
        "import numpy as np\n"
        "from depthbound.fermion import majorana_couplings, schur\n"
        f"{setup}\n"
        "h = majorana_couplings(41, 1.0)\n"
        "t, z = schur(h)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import scipy.linalg\n"
        "t_ref, z_ref = scipy.linalg.schur(h)\n"
        "print(np.array_equal(t, t_ref) and np.array_equal(z, z_ref), *loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    same, *loaded = out.stdout.split()
    return set(loaded), same == "True"


def test_schur_loads_the_lapack_extension_alone_before_scipy_linalg():
    """The first Schur form opens scipy's LAPACK extension file but
    initialises no scipy module; a later scipy.linalg import loads the
    module from that file, and its schur gives the same bits."""
    assert _fresh_schur_routes("") == (set(), True)


def test_schur_without_the_extension_file_imports_it():
    """With no extension suffix to look the file up by, the extension is
    imported through scipy.linalg and its file opened, and T and Z keep
    their bits."""
    loaded, same = _fresh_schur_routes("importlib.machinery.EXTENSION_SUFFIXES = []")
    assert {"scipy.linalg", "scipy.linalg._flapack"} <= loaded
    assert same


def test_concurrent_first_schur_forms_load_the_extension_once(monkeypatch):
    """Eight threads make their first Schur form at once, on a shortened
    switch interval and with a load slow enough to overlap them: one
    thread loads the extension, and every thread gets the same bits."""
    loads = []
    load = fermion._load_lapack

    def slow_load():
        loads.append(threading.get_ident())
        time.sleep(0.01)
        return load()

    monkeypatch.setattr(fermion, "_lapack", None)
    monkeypatch.setattr(fermion, "_load_lapack", slow_load)
    h = majorana_couplings(3, 1.0)
    t_ref, z_ref = scipy.linalg.schur(h)
    start = threading.Barrier(8)

    def first_schur():
        start.wait(timeout=30)
        return schur(h)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(first_schur) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(loads) == 1
    assert all(np.array_equal(t, t_ref) and np.array_equal(z, z_ref) for t, z in results)


@pytest.mark.parametrize("user", [None, "28", ""])
def test_load_dgees_sets_the_thread_timeout_for_the_load_alone(monkeypatch, user):
    """The shared guard gives its body OPENBLAS_THREAD_TIMEOUT = 16 unless the
    user set a value, which the body sees unchanged; afterwards, a raising
    body included, the environment is what it was.  ``_load_lapack`` loads
    scipy's extension inside it, and a failed load restores it too."""
    if user is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", user)
    seen = []

    def find_spec(name):
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        raise ImportError("no scipy")

    before = dict(os.environ)
    with pytest.raises(ImportError), _openblas.short_thread_timeout():
        find_spec("numpy")
    assert dict(os.environ) == before
    monkeypatch.setattr(_lapack.importlib.util, "find_spec", find_spec)
    with pytest.raises(ImportError):
        fermion._load_lapack()
    assert seen == ["16" if user is None else user] * 2
    assert dict(os.environ) == before


_IDLE_CHILD = """
import ctypes, json, os, time
env = dict(os.environ)
{imports}

def openblas_libs():
    with open("/proc/self/maps") as maps:
        return {{line.split()[-1] for line in maps if "openblas" in line}}

def timeout(path):  # the OPENBLAS_THREAD_TIMEOUT a loaded OpenBLAS read, where it exports it
    read = getattr(ctypes.CDLL(path), "openblas_thread_timeout", None)
    if read is None:
        return None
    read.argtypes, read.restype = [], ctypes.c_int
    return read()

libs = openblas_libs()
{work}
cpu = time.process_time()
time.sleep(0.3)
print(json.dumps({{
    "idle_cpu_s": time.process_time() - cpu, "workers": len(os.listdir("/proc/self/task")) - 1,
    "env_kept": dict(os.environ) == env,
    "numpy": sorted({{timeout(p) for p in libs}}, key=str),
    "scipy": sorted({{timeout(p) for p in openblas_libs() - libs}}, key=str),
}}))
"""
_SCHUR = ("from depthbound.fermion import majorana_couplings, schur", "schur(majorana_couplings(301, 1.0))")
_DENSE = ("import depthbound.cli\nfrom depthbound.models import ThermalEigensystem, build_tfim",
          "ThermalEigensystem.of(build_tfim(10, 1.0))")


def _idle_after(child, **env):
    """``child``'s imports and work in a fresh process, then a 0.3 s sleep:
    the CPU the sleep burns, the OpenBLAS worker threads alive, whether
    os.environ came back to what it was before the imports, and the thread
    timeout each OpenBLAS (numpy's, loaded by the imports; scipy's, loaded
    by a Schur form) read."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task and /proc/self/maps")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"} | env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    imports, work = child
    out = subprocess.run([sys.executable, "-c", _IDLE_CHILD.format(imports=imports, work=work)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_schur_pool_sleeps_after_the_call():
    """Both OpenBLAS libraries read the short thread timeout, so their
    workers sleep soon after dhseqr ends; at the default they spun about
    0.1 s (0.13 s of CPU in the sleep on 2 cores)."""
    run = _idle_after(_SCHUR)
    assert run["env_kept"]
    assert run["scipy"] in ([16], [None])
    assert run["numpy"] in ([16], [None])
    if run["workers"] > 0:
        assert run["idle_cpu_s"] < 0.03


def test_dense_pool_sleeps_after_the_eigensystem():
    """A dense run loads no scipy; numpy's OpenBLAS, loaded by ``import
    depthbound``, reads the short thread timeout, so its workers sleep
    soon after the last eigh ends.  At the default they spun about 0.1 s:
    the sleep burned 0.13 s of CPU on 2 cores.  ``import depthbound``
    leaves os.environ as it was."""
    run = _idle_after(_DENSE)
    assert run["env_kept"]
    assert run["scipy"] == []
    assert run["numpy"] in ([16], [None])
    if run["workers"] > 0:
        assert run["idle_cpu_s"] < 0.03


def test_numpy_loaded_first_keeps_its_thread_timeout():
    """numpy imported before depthbound has its OpenBLAS loaded already:
    the guard cannot reach it, and it keeps what it read (0, unset)."""
    run = _idle_after(("import numpy\n" + _DENSE[0], _DENSE[1]))
    assert run["env_kept"]
    assert run["numpy"] in ([0], [None])


def test_user_thread_timeout_is_kept():
    """A value the user set before ``import depthbound`` is neither
    overwritten nor removed, and both OpenBLAS libraries read it: 28,
    OpenBLAS's default, gives back the spinning pools."""
    run = _idle_after(_SCHUR, OPENBLAS_THREAD_TIMEOUT="28")
    assert run["env_kept"]
    assert run["scipy"] in ([28], [None])
    assert run["numpy"] in ([28], [None])


# ---------------------------------------------------------------------------
# covariance matrices
# ---------------------------------------------------------------------------


def test_infinite_temperature_covariance_vanishes():
    cov = thermal_covariance(bdg_diagonalize(4, 1.0), 0.0)
    assert np.max(np.abs(cov.gamma)) < 1e-12


def test_covariance_spectral_norm_bounded():
    cov = thermal_covariance(bdg_diagonalize(6, 1.0), 30.0)
    assert np.linalg.norm(cov.gamma, 2) <= 1.0 + 1e-10


@pytest.mark.parametrize("g", [0.5, 1.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 10.0, 70.0])
def test_covariance_equals_dense_block_product_bitwise(g, beta):
    """Q Γ′ as a column swap-and-scale gives the bits of the dense product
    with the block-diagonal Γ′: its other terms are exact zeros."""
    spectrum = bdg_diagonalize(41, g)
    tk = np.tanh(0.5 * beta * spectrum.energies)
    gp = np.zeros((82, 82))
    for k, t in enumerate(tk):
        gp[2 * k, 2 * k + 1] = -t
        gp[2 * k + 1, 2 * k] = t
    gamma = spectrum.q @ gp @ spectrum.q.T
    gamma = 0.5 * (gamma - gamma.T)
    got = thermal_covariance(spectrum, beta).gamma
    assert got.tobytes() == gamma.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    g=st.floats(0.2, 2.0),
    beta=st.floats(0.0, 200.0),
    fraction=st.floats(0.0, 1.0),
)
def test_prefix_covariance_is_the_leading_block(n, g, beta, fraction):
    """The covariance of sites 0..prefix-1 is the full covariance's leading
    block: the same sums over modes, from fewer rows of Q."""
    prefix = 1 + round(fraction * (n - 1))
    spectrum = bdg_diagonalize(n, g)
    block = thermal_covariance(spectrum, beta, prefix=prefix)
    full = thermal_covariance(spectrum, beta)
    assert block.n_sites == prefix
    assert np.max(np.abs(block.gamma - full.gamma[: 2 * prefix, : 2 * prefix])) <= 1e-14


@pytest.mark.parametrize("prefix", [0, 42])
def test_prefix_outside_the_chain_is_rejected(prefix):
    with pytest.raises(ValueError, match="prefix outside the chain"):
        thermal_covariance(bdg_diagonalize(41, 1.0), 2.0, prefix=prefix)


@pytest.mark.parametrize("beta", [math.nan, -1.0, -math.inf, -1e-300])
@pytest.mark.parametrize(
    "route",
    [
        lambda beta: ThermalEigensystem.of(build_tfim(4, 1.0)).weights(beta),
        lambda beta: thermal_covariance(bdg_diagonalize(12, 1.0), beta),
        lambda beta: chi2_E_quadratic(bdg_diagonalize(12, 1.0), beta, 5),
        lambda beta: weak_x_lines(bdg_diagonalize(12, 1.0), beta, 5),
    ],
    ids=["weights", "thermal_covariance", "chi2_E_quadratic", "weak_x_lines"],
)
def test_nan_or_negative_beta_is_rejected(route, beta):
    """A nan beta fails the ``beta >= 0`` test as a negative one does; the
    Gibbs weights, the covariance and both line routes raise alike."""
    with pytest.raises(ValueError, match="^beta must be non-negative$"):
        route(beta)


def test_infinite_beta_stays_valid():
    spectrum = bdg_diagonalize(12, 1.0)
    cov = thermal_covariance(spectrum, math.inf)
    assert np.isfinite(cov.gamma).all()
    assert np.isfinite(weak_x_lines(spectrum, math.inf, 5).weights).all()


NORM_LIMIT = 1.0 + 1e-10


def test_covariance_guard_rejects_scaled_thermal_gamma():
    cov = thermal_covariance(bdg_diagonalize(41, 1.0), 50.0)
    with pytest.raises(ValueError, match="singular value .* exceeds 1"):
        MajoranaCovariance(1.001 * cov.gamma, cov.beta)


def test_covariance_guard_sees_one_large_singular_value_in_small_entries():
    """One 2x2 block of singular value 1 + 1e-9 spread over 200 Majoranas:
    no entry is near 1, but the spectral norm exceeds the limit."""
    dim = 200
    o, _ = np.linalg.qr(RNG.normal(size=(dim, dim)))
    s = 1.0 + 1e-9
    gamma = s * (np.outer(o[:, 0], o[:, 1]) - np.outer(o[:, 1], o[:, 0]))
    assert np.max(np.abs(gamma)) < 0.1
    assert not _norm_below(gamma, NORM_LIMIT)
    with pytest.raises(ValueError, match="singular value"):
        MajoranaCovariance(gamma, 1.0)


def test_covariance_guard_rejects_scaled_prefix_block():
    cov = thermal_covariance(bdg_diagonalize(41, 1.0), 50.0, prefix=21)
    assert cov.gamma.shape == (42, 42)
    with pytest.raises(ValueError, match="singular value .* exceeds 1"):
        MajoranaCovariance(1.001 * cov.gamma, cov.beta)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 1), (3, 3), "pair"])
def test_covariance_guard_rejects_a_non_finite_gamma(value, where):
    """A nan or inf entry, alone, on the diagonal or mirrored into an
    antisymmetric pair, is rejected before the Cholesky test, which returns
    on a nan Gram matrix without raising."""
    gamma = thermal_covariance(bdg_diagonalize(8, 1.0), 2.0).gamma.copy()
    if where == "pair":
        gamma[0, 1], gamma[1, 0] = value, -value
    else:
        gamma[where] = value
    with pytest.raises(ValueError, match="^covariance must be finite$"):
        MajoranaCovariance(gamma, 2.0)
    with pytest.raises(ValueError, match="^covariance must be finite$"):
        MajoranaCovariance(gamma.astype(complex), 2.0)


def test_covariance_guard_keeps_its_antisymmetry_verdict():
    gamma = thermal_covariance(bdg_diagonalize(8, 1.0), 2.0).gamma.copy()
    gamma[0, 1] += 2e-10
    with pytest.raises(ValueError, match="^covariance must be antisymmetric$"):
        MajoranaCovariance(gamma, 2.0)
    gamma[0, 1] -= 1.5e-10
    assert MajoranaCovariance(gamma, 2.0).gamma is gamma


@pytest.mark.parametrize("beta", [0.0, 1e3])
def test_covariance_guard_clears_thermal_gamma_at_n301(beta):
    """At beta = 1e3 every singular value is 1 to about 1e-14, well inside
    the 1e-10 margin; the Cholesky test alone must clear it."""
    cov = thermal_covariance(bdg_diagonalize(301, 1.0), beta)
    assert _norm_below(cov.gamma, NORM_LIMIT)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 40).map(lambda k: 2 * k),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-12.5, -6.0),
    above=st.booleans(),
)
@example(dim=8, seed=1, exponent=-10.7, above=False)  # s^2 inside (limit, limit^2)
@example(dim=8, seed=1, exponent=-11.7, above=True)
def test_cholesky_norm_verdict_matches_svd(dim, seed, exponent, above):
    """Away from a +-1e-12 band around the limit, the Cholesky verdict on a
    random antisymmetric matrix is the SVD verdict."""
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    a = a - a.T
    target = NORM_LIMIT * (1.0 + (1.0 if above else -1.0) * 10.0**exponent)
    gamma = a * (target / np.linalg.norm(a, 2))
    smax = np.linalg.norm(gamma, 2)
    assume(abs(smax - NORM_LIMIT) > 1e-12)
    assert _norm_below(gamma, NORM_LIMIT) == (smax <= NORM_LIMIT)


@pytest.mark.parametrize("site", [0, 2, 3])
def test_x_expectation_matches_dense(site):
    n, g, beta = 4, 1.1, 1.5
    _, rho = dense_reference(n, g, beta)
    dense_x = rho.expectation(X, (site,))
    cov = thermal_covariance(bdg_diagonalize(n, g), beta)
    assert x_expectation(cov, site) == pytest.approx(dense_x, abs=1e-10)


def test_connected_xx_matches_dense():
    n, g, beta = 5, 1.0, 2.0
    _, rho = dense_reference(n, g, beta)
    cov = thermal_covariance(bdg_diagonalize(n, g), beta)
    for i, j in [(0, 2), (1, 4), (0, 4)]:
        xx = rho.expectation(np.kron(X, X), (i, j))
        conn_dense = xx - rho.expectation(X, (i,)) * rho.expectation(X, (j,))
        assert connected_xx(cov, i, j) == pytest.approx(conn_dense, abs=1e-10)


def test_string_x_matches_dense():
    n, g, beta = 4, 0.8, 1.0
    _, rho = dense_reference(n, g, beta)
    cov = thermal_covariance(bdg_diagonalize(n, g), beta)
    for sites in [(0,), (1, 2), (0, 1, 3), (0, 1, 2, 3)]:
        op = X
        for _ in sites[1:]:
            op = np.kron(op, X)
        dense_val = rho.expectation(op, sites)
        assert string_x_expectation(cov, sites) == pytest.approx(dense_val, abs=1e-10)


def test_reads_outside_the_covariance_are_rejected():
    """Negative sites would wrap around, and sites past a prefix block
    would read past it; both are rejected."""
    spectrum = bdg_diagonalize(6, 1.0)
    full = thermal_covariance(spectrum, 2.0)
    block = thermal_covariance(spectrum, 2.0, prefix=3)
    reads = [
        lambda: x_expectation(full, -1),
        lambda: x_expectation(full, 6),
        lambda: x_expectation(block, 3),
        lambda: connected_xx(full, 2, -1),
        lambda: connected_xx(full, -1, -1),
        lambda: connected_xx(block, 2, 4),
        lambda: string_x_expectation(block, (0, 3)),
        lambda: gaussian_entropy(block, (3,)),
    ]
    for read in reads:
        with pytest.raises(ValueError, match="site outside the chain"):
            read()
    assert x_expectation(block, 2) == x_expectation(full, 2)


def test_gaussian_entropy_matches_dense():
    n, g, beta = 5, 1.0, 1.3
    _, rho = dense_reference(n, g, beta)
    cov = thermal_covariance(bdg_diagonalize(n, g), beta)
    for sites in [(0,), (0, 1), (1, 2, 3), tuple(range(n))]:
        dense_s = von_neumann_entropy(rho.reduced(sites))
        assert gaussian_entropy(cov, sites) == pytest.approx(dense_s, abs=1e-9)


@pytest.mark.parametrize("n", [143, 301])
def test_ground_state_covariance_matches_schur_route(n):
    """At beta = 50n, (1/2) beta eps_min is far past the 19.1 at which tanh
    rounds to 1, so the thermal covariance is the ground state's."""
    gs = ground_state_covariance(n, 1.0)
    assert gs.gamma.shape == (2 * n, 2 * n)
    schur_route = thermal_covariance(bdg_diagonalize(n, 1.0), 50.0 * n)
    assert np.max(np.abs(gs.gamma - schur_route.gamma)) <= 1e-12


@pytest.mark.parametrize("n, g", [(2, 1.0), (41, 1.2), (301, 1.0)])
def test_ground_state_prefix_bit_equal_to_leading_block(n, g):
    """The covariance of sites 0 … p − 1 holds the bits of the whole
    chain's leading 2p × 2p block."""
    full = ground_state_covariance(n, g).gamma
    for prefix in sorted({1, (n - 1) // 2 + 1, n}):
        block = ground_state_covariance(n, g, prefix=prefix)
        assert block.n_sites == prefix
        assert block.gamma.tobytes() == np.ascontiguousarray(full[: 2 * prefix, : 2 * prefix]).tobytes()
    for prefix in (0, n + 1):
        with pytest.raises(ValueError, match="prefix outside the chain"):
            ground_state_covariance(n, g, prefix=prefix)


def test_covariance_must_be_antisymmetric():
    gamma = thermal_covariance(bdg_diagonalize(5, 1.0), 2.0).gamma
    bump = np.zeros_like(gamma)
    bump[0, 3] = bump[3, 0] = 0.4e-10
    MajoranaCovariance(gamma + bump, 2.0)
    with pytest.raises(ValueError, match="antisymmetric"):
        MajoranaCovariance(gamma + 3.0 * bump, 2.0)


@pytest.mark.parametrize("n, g", [(301, 0.5), (301, 0.9), (8, 0.0)])
def test_ground_state_covariance_rejects_a_gapless_chain(n, g):
    """Below g = 1 the edge mode's energy falls like g^n, and at g = 0 it
    is 0: the ground state is degenerate to rounding."""
    with pytest.raises(NumericalConsistencyError, match="gapless chain"):
        ground_state_covariance(n, g)


# ---------------------------------------------------------------------------
# pfaffian
# ---------------------------------------------------------------------------


def test_pfaffian_squares_to_determinant():
    # |Pf² − det| <= max(1e-10 |det|, 1e-12), five matrices of each dimension.
    dims = [dim for dim in (2, 4, 6, 8) for _ in range(5)]
    assert pfaffian_error(RNG, dims, floor=1e-12 / 1e-10) <= 1e-10


def test_pfaffian_closed_forms():
    m2 = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert pfaffian(m2) == pytest.approx(3.0)
    # 4x4: Pf = a12 a34 − a13 a24 + a14 a23
    a = RNG.normal(size=(4, 4))
    m = a - a.T
    expected = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert pfaffian(m) == pytest.approx(expected, rel=1e-12)


def test_pfaffian_odd_dimension_is_zero():
    m = np.zeros((3, 3))
    m[0, 1], m[1, 0] = 1.0, -1.0
    assert pfaffian(m) == 0.0


def test_pfaffian_rejects_nonantisymmetric():
    with pytest.raises(ValueError):
        pfaffian(np.eye(4))


# ---------------------------------------------------------------------------
# spectral lines and chi2_E
# ---------------------------------------------------------------------------


def test_weak_x_lines_total_weight_rule():
    """Sum of connected line weights is 1 − ⟨X⟩² exactly."""
    n, g, beta = 6, 1.0, 3.0
    spec = bdg_diagonalize(n, g)
    cov = thermal_covariance(spec, beta)
    for site in (0, 3):
        lines = weak_x_lines(spec, beta, site)
        expected = 1.0 - x_expectation(cov, site) ** 2
        assert lines.total_weight() == pytest.approx(expected, abs=1e-12)


def test_weak_x_lines_nonnegative_and_balanced():
    spec = bdg_diagonalize(5, 0.9)
    beta = 2.2
    lines = weak_x_lines(spec, beta, 2)
    assert np.all(lines.weights >= -1e-14)
    freqs, wts = lines.frequencies, lines.weights
    for f, w in zip(freqs, wts):
        if f <= 1e-9 or w < 1e-13:
            continue
        j = int(np.argmin(np.abs(freqs + f)))
        assert wts[j] == pytest.approx(w * math.exp(-beta * f), rel=1e-8)


def test_weak_x_lines_match_dense_correlator():
    """Free-fermion Wick lines against the dense eigenbasis lines, compared
    through C(t) samples (line groupings differ between the two builders)."""
    n, g, beta = 4, 1.0, 1.5
    ham = build_tfim(n, g)
    site = 1
    obs = embed_operator(X, (site,), tuple(range(n)))
    dense_lines = dynamical_correlation(ham, beta, obs)
    free_lines = weak_x_lines(bdg_diagonalize(n, g), beta, site)
    times = np.linspace(-3.0, 3.0, 11)
    assert np.allclose(
        dense_lines.sample(times), free_lines.sample(times), atol=1e-10
    )


def test_chi2_E_quadratic_routes_agree():
    n, g, beta = 6, 1.0, 4.0
    spec = bdg_diagonalize(n, g)
    site = 3
    val = chi2_E_quadratic(spec, beta, site).value
    via_lines = chi2_E_spectral(weak_x_lines(spec, beta, site), beta).value
    assert val == pytest.approx(via_lines, rel=1e-12)
    # dense route at matching size
    obs = embed_operator(X, (site,), tuple(range(n)))
    dense = chi2_E_eigensum(build_tfim(n, g).to_matrix(), beta, obs).value
    assert val == pytest.approx(dense, rel=1e-8)


def test_chi2_E_decays_with_beta():
    spec = bdg_diagonalize(41, 1.0)
    center = 20
    vals = [chi2_E_quadratic(spec, b, center).value for b in (5.0, 10.0, 20.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def _rebuilt_lines(spectrum, beta, site):
    """Every line rebuilt at this beta from whole n×n outer products,
    unmerged: the pair lines, the negated pair lines, then the particle-hole
    block.  It is the reference for the line kernel's order, weights and
    negative-weight message."""
    if not 0 <= site < spectrum.n_modes:
        raise ValueError("site outside the chain")
    eps = spectrum.energies
    a, b = _site_mode_amplitudes(spectrum, site)
    z = a * b.conj()
    with np.errstate(over="ignore"):
        f = 1.0 / (1.0 + np.exp(beta * eps))
    m1 = np.outer(np.abs(a) ** 2, np.abs(b) ** 2)
    sym = m1 + m1.T
    s_pair = sym - 2.0 * np.real(np.outer(z, z.conj()))
    s_ph = sym - 2.0 * np.real(np.outer(z, z))
    iu, il = np.triu_indices(spectrum.n_modes, k=1)
    freqs = [eps[iu] + eps[il], -(eps[iu] + eps[il])]
    occ_pair = np.outer(1.0 - f, 1.0 - f)
    occ_pair_inv = np.outer(f, f)
    weights = [occ_pair[iu, il] * s_pair[iu, il], occ_pair_inv[iu, il] * s_pair[iu, il]]
    # particle-hole sector, ordered pairs including k = l
    om_ph = eps[:, None] - eps[None, :]
    w_ph = np.outer(1.0 - f, f) * s_ph
    freqs.append(om_ph.reshape(-1))
    weights.append(w_ph.reshape(-1))
    freq = np.concatenate(freqs)
    weight = np.concatenate(weights)
    if weight.size and float(weight.min()) < -1e-10:
        raise ValueError(f"negative line weight {weight.min()}")
    return freq, np.clip(weight, 0.0, None)


def _weak_x_lines_rebuilt(spectrum, beta, site):
    """Every line rebuilt and merged at this beta."""
    freq, weight = _rebuilt_lines(spectrum, beta, site)
    return SpectralLines.merged(freq, weight, 1e-10 * max(1.0, float(np.max(np.abs(freq)))))


BETAS = st.one_of(st.just(0.0), st.floats(0.0, 200.0), st.just(1e3))
LINE_TABLE_CASES = dict(
    n=st.integers(2, 41),
    g=st.floats(0.3, 2.0),
    site_pick=st.one_of(st.just(0), st.just(-1), st.floats(0.0, 1.0)),
)


def _site(n, site_pick):
    return n - 1 if site_pick == -1 else int(site_pick * (n - 1))


@settings(max_examples=40, deadline=None)
@given(beta=BETAS, **LINE_TABLE_CASES)
@example(n=41, g=1.0, beta=1e3, site_pick=0.5)  # exp(beta * eps) overflows to inf
@example(n=2, g=0.3, beta=0.0, site_pick=-1)
def test_weak_x_lines_bit_equal_to_rebuilt_lines(n, g, beta, site_pick):
    """The line kernel's lines, merged, give the bits of rebuilding and
    merging them at one beta, at either chain end and inside."""
    site = _site(n, site_pick)
    spectrum = bdg_diagonalize(n, g)
    got = weak_x_lines(spectrum, beta, site)
    ref = _weak_x_lines_rebuilt(spectrum, beta, site)
    assert got.frequencies.tobytes() == ref.frequencies.tobytes()
    assert got.weights.tobytes() == ref.weights.tobytes()


def test_line_table_serves_many_betas():
    """At several beta the line kernel's unmerged lines, in their order, and
    weak_x_lines' merged lines have the bits of the rebuilt lines."""
    spectrum = bdg_diagonalize(21, 1.0)
    for beta in (0.0, 2.0, 30.0):
        freq, weight = np.empty((2, 21 * 41))
        fermion._x_lines(spectrum, beta, 10, freq, weight.__setitem__)
        ref_f, ref_w = _rebuilt_lines(spectrum, beta, 10)
        assert freq.tobytes() == ref_f.tobytes()
        assert np.clip(weight, 0.0, None).tobytes() == ref_w.tobytes()
        got = weak_x_lines(spectrum, beta, 10)
        merged = _weak_x_lines_rebuilt(spectrum, beta, 10)
        assert got.frequencies.tobytes() == merged.frequencies.tobytes()
        assert got.weights.tobytes() == merged.weights.tobytes()
    with pytest.raises(ValueError, match="site outside"):
        weak_x_lines(spectrum, 2.0, 21)


def _chi_E_or_error(call):
    try:
        return call().value
    except NumericalConsistencyError as exc:
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 60),
    g=st.one_of(st.just(0.0), st.just(1.5), st.floats(0.3, 2.0)),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 200.0), st.just(1e3), st.just(1e308)),
)
@example(n=41, g=1.0, beta=2.0)
@example(n=60, g=0.0, beta=1e308)
def test_chi2_E_quadratic_bit_equal_to_rebuilt_line_sum(n, g, beta):
    """The run path's χ_E, summed term by term, has the bits of the sum over
    the rebuilt lines' weights, at every site; where that sum raises (an
    overflowed β ω), it raises the same error."""
    spectrum = bdg_diagonalize(n, g)
    for site in range(n):
        ref = _chi_E_or_error(lambda: chi2_E_spectral(_rebuilt_lines(spectrum, beta, site), beta))
        got = _chi_E_or_error(lambda: chi2_E_quadratic(spectrum, beta, site))
        assert got == ref and (isinstance(got, str) or math.copysign(1.0, got) == math.copysign(1.0, ref))


def test_chi2_E_quadratic_rejects_a_negative_line_weight():
    """Real amplitudes b ≈ 1.1 a make every line strength |a_k b_l − a_l b_k|²
    about 1e-20; at amplitudes near 1e3, rounding leaves some of them far
    below −1e-10.  The sum term by term then stops as weak_x_lines does,
    with the rebuilt lines' lowest weight in its message."""
    n, site = 8, 3
    q = np.zeros((2 * n, 2 * n))
    q[2 * site, 0::2] = np.random.default_rng(1).uniform(1e3, 2e3, n)
    q[2 * site + 1, 0::2] = 1.1 * q[2 * site, 0::2]
    spectrum = SimpleNamespace(n_modes=n, energies=np.linspace(0.5, 4.0, n), q=q)
    with pytest.raises(ValueError, match="negative line weight") as ref:
        _rebuilt_lines(spectrum, 0.0, site)
    with pytest.raises(NumericalConsistencyError) as lines:
        weak_x_lines(spectrum, 0.0, site)
    with pytest.raises(NumericalConsistencyError) as got:
        chi2_E_quadratic(spectrum, 0.0, site)
    assert str(got.value) == str(lines.value) == str(ref.value)
    with pytest.raises(ValueError, match="site outside"):
        chi2_E_quadratic(spectrum, 0.0, n)


def _assert_chi_E_unmerged_matches_merged(spectrum, beta, site):
    got = chi2_E_quadratic(spectrum, beta, site).value
    ref = chi2_E_spectral(weak_x_lines(spectrum, beta, site), beta).value
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(betas=st.lists(BETAS, min_size=1, max_size=4), **LINE_TABLE_CASES)
@example(betas=[0.0, 2.0, 1e3], n=41, g=1.0, site_pick=0.5)
@example(betas=[0.0, 200.0], n=2, g=0.3, site_pick=-1)
def test_chi_E_over_unmerged_table_lines_matches_merged_lines(betas, n, g, site_pick):
    """chi_E is linear in the line weights, so the sum over the unsorted,
    unmerged lines gives the chi_E of the merged lines at every beta."""
    site = _site(n, site_pick)
    spectrum = bdg_diagonalize(n, g)
    for beta in betas:
        _assert_chi_E_unmerged_matches_merged(spectrum, beta, site)


@pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
def test_chi_E_over_unmerged_table_lines_matches_merged_lines_at_n_301(g):
    spectrum = bdg_diagonalize(301, g)
    for beta in (10.0, 100.0):
        _assert_chi_E_unmerged_matches_merged(spectrum, beta, 150)


def _where_reduce(freq, starts, means, weight):
    """The reference merge of sorted lines: one np.where over the groups."""
    merged_w = np.add.reduceat(weight, starts)
    sum_fw = np.add.reduceat(freq * weight, starts)
    heavy = merged_w > 1e-300
    return np.where(heavy, sum_fw / np.where(heavy, merged_w, 1.0), means), merged_w


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 21]), seed=st.integers(0, 2**32 - 1))
def test_merged_lines_bit_equal_to_where_form(n, seed):
    """SpectralLines.merged over the rebuilt lines' frequencies gives the bits
    of the np.where form over the sorted lines' groups, with zero and
    sub-1e-300 weights among the lines, so that light groups sit at their
    plain mean."""
    rng = np.random.default_rng(seed)
    spectrum = bdg_diagonalize(n, float(rng.uniform(0.3, 2.0)))
    freq = _rebuilt_lines(spectrum, 0.0, int(rng.integers(n)))[0]
    weight = rng.random(freq.size)
    weight[rng.random(weight.size) < 0.3] = 0.0
    weight[rng.random(weight.size) < 0.2] = 1e-310
    atol = 1e-10 * max(1.0, float(np.max(np.abs(freq))))
    order = np.argsort(freq)
    sorted_f = freq[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_f) > atol) + 1])
    counts = np.diff(np.concatenate([starts, [sorted_f.size]]))
    means = np.add.reduceat(sorted_f, starts) / counts
    ref_f, ref_w = _where_reduce(sorted_f, starts, means, weight[order])
    got = SpectralLines.merged(freq, weight, atol)
    assert got.frequencies.tobytes() == ref_f.tobytes()
    assert got.weights.tobytes() == ref_w.tobytes()
