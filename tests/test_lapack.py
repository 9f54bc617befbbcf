"""The ctypes LAPACK binder and the in-place dense eigensolver."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthbound import _lapack
from depthbound._lapack import cholesky_succeeds, eigh_in_place
from depthbound.models import SpinHamiltonian, build_tfim
from depthbound.states import NumericalConsistencyError

RNG = np.random.default_rng(7)


def _halves(ham):
    for sign in (1, -1):
        for t in (1, -1):
            half = ham.half_block(sign, t)
            if half.size:
                yield half


@pytest.mark.parametrize("n", range(2, 12))
def test_tfim_halves_keep_the_bits_of_numpy_eigh(n):
    """Every reflection half of the TFIM at n ≤ 11: eigenvalues and
    eigenvectors byte for byte those of np.linalg.eigh, and eigenvalues
    alone those of eigvalsh."""
    for half in _halves(build_tfim(n, 0.9)):
        w_ref, v_ref = np.linalg.eigh(half)
        values_ref = np.linalg.eigvalsh(half)
        a, b = half.copy(), half.copy()
        w = eigh_in_place(a)
        assert w.tobytes() == w_ref.tobytes() and a.tobytes() == v_ref.tobytes()
        assert eigh_in_place(b, vectors=False).tobytes() == values_ref.tobytes()


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 300), st.integers(0, 2**31 - 1), st.booleans())
def test_real_matrices_keep_the_bits_of_numpy_eigh(n, seed, symmetric):
    """Random real matrices read, like numpy's eigh, from the lower triangle:
    exactly symmetric ones and ones whose upper triangle differs."""
    a = np.random.default_rng(seed).standard_normal((n, n))
    if symmetric:
        a = a + a.T
    w_ref, v_ref = np.linalg.eigh(a)
    b, c = a.copy(), a.copy()
    w = eigh_in_place(b)
    assert w.tobytes() == w_ref.tobytes() and b.tobytes() == v_ref.tobytes()
    assert eigh_in_place(c, vectors=False).tobytes() == np.linalg.eigvalsh(a).tobytes()


def _complex_mirror_model(rng, n):
    """A ∏X- and mirror-symmetric chain with an X Y Z term and its mirror
    image, which make H complex, on top of a transverse-field chain."""
    terms = list(build_tfim(n, float(rng.uniform(0.2, 2.0))).terms)
    coeff = float(rng.uniform(-1.0, 1.0))
    terms += [(coeff, ((0, "X"), (1, "Y"), (2, "Z"))), (coeff, ((n - 3, "Z"), (n - 2, "Y"), (n - 1, "X")))]
    return SpinHamiltonian(n, tuple(terms))


@settings(deadline=None, max_examples=20)
@given(st.integers(3, 9), st.integers(0, 2**31 - 1))
def test_complex_halves_match_numpy_eigh(n, seed):
    """The reflection halves of complex mirror-symmetric models: the same
    eigenvalues and eigenvectors as np.linalg.eigh, and eigvalsh's values."""
    ham = _complex_mirror_model(np.random.default_rng(seed), n)
    assert ham.mirror_symmetric
    halves = list(_halves(ham))
    assert any(half.dtype == np.complex128 for half in halves)
    for half in halves:
        w_ref, v_ref = np.linalg.eigh(half)
        a, b = half.copy(), half.copy()
        w = eigh_in_place(a)
        assert np.array_equal(w, w_ref) and np.array_equal(a, v_ref)
        assert np.array_equal(eigh_in_place(b, vectors=False), np.linalg.eigvalsh(half))


def test_complex_matrices_read_the_lower_triangle():
    """A complex matrix whose upper triangle is not the conjugate of its
    lower one is read from its lower triangle, as numpy reads it."""
    z = RNG.standard_normal((70, 70)) + 1j * RNG.standard_normal((70, 70))
    w_ref, v_ref = np.linalg.eigh(z)
    a = z.copy()
    w = eigh_in_place(a)
    assert np.array_equal(w, w_ref) and np.array_equal(a, v_ref)


def test_unconverged_solver_raises(monkeypatch):
    """INFO > 0 from LAPACK raises NumericalConsistencyError."""

    def unconverged(*args):
        args[-3].value = 2  # INFO, before the two string lengths

    monkeypatch.setitem(_lapack._numpy_routines, "dsyevd", unconverged)
    with pytest.raises(NumericalConsistencyError, match=r"dsyevd did not converge \(info = 2\)"):
        eigh_in_place(np.eye(4))


@pytest.mark.parametrize(
    "a",
    [np.eye(4)[:, ::2], np.asfortranarray(RNG.standard_normal((4, 4))), np.eye(4, dtype=np.float32),
     np.eye(4).reshape(2, 2, 4)],
    ids=["not-square", "fortran-order", "float32", "three-axes"],
)
def test_eigh_in_place_rejects_what_it_cannot_overwrite(a):
    with pytest.raises(ValueError):
        eigh_in_place(a)


def test_read_only_array_is_rejected():
    a = np.eye(3)
    a.flags.writeable = False
    with pytest.raises(ValueError, match="writable"):
        eigh_in_place(a)


@pytest.mark.parametrize("vectors", [True, False])
def test_without_numpy_lapack_symbols_numpy_solves(monkeypatch, vectors):
    """Where numpy links no LAPACK under the ILP64 names, numpy's own eigh
    runs and its result lands in the caller's array."""
    monkeypatch.setitem(_lapack._numpy_routines, "dsyevd", None)
    a = RNG.standard_normal((30, 30))
    a = a + a.T
    b = a.copy()
    w = eigh_in_place(b, vectors=vectors)
    if vectors:
        w_ref, v_ref = np.linalg.eigh(a)
        assert np.array_equal(w, w_ref) and np.array_equal(b, v_ref)
    else:
        assert np.array_equal(w, np.linalg.eigvalsh(a))


@pytest.mark.parametrize("bound", [True, False], ids=["dpotrf", "numpy-fallback"])
@pytest.mark.parametrize("shift", [0.0, -1e-9, 1e-9, 5.0])
def test_cholesky_verdict_is_numpy_s(monkeypatch, shift, bound):
    """dpotrf in place, or numpy where no dpotrf can be bound, gives
    np.linalg.cholesky's verdict, at the edge of positive definiteness too."""
    if not bound:
        monkeypatch.setitem(_lapack._numpy_routines, "dpotrf", None)
    g = RNG.standard_normal((40, 12))
    gram = g @ g.T  # rank 12: singular
    gram.flat[::41] += shift
    try:
        np.linalg.cholesky(gram)
        expected = True
    except np.linalg.LinAlgError:
        expected = False
    assert cholesky_succeeds(gram.copy()) is expected


def test_concurrent_first_calls_bind_each_routine_once(monkeypatch):
    """Eight threads make their first eigensolve at once with an empty
    routine cache: one binding of dsyevd is kept, and every thread gets
    numpy's bits."""
    monkeypatch.setattr(_lapack, "_numpy_routines", {})
    a = RNG.standard_normal((200, 200))
    a = a + a.T
    w_ref, v_ref = np.linalg.eigh(a)
    start = threading.Barrier(8)

    def first_call():
        start.wait(timeout=30)
        b = a.copy()
        return eigh_in_place(b), b, _lapack._numpy_routines["dsyevd"]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(first_call) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(routine) for _, _, routine in results}) == 1
    assert all(w.tobytes() == w_ref.tobytes() and b.tobytes() == v_ref.tobytes() for w, b, _ in results)


def test_without_a_thread_setter_the_pool_is_left_alone(monkeypatch):
    """A library with no OpenBLAS thread setter among its dependencies (as
    where numpy links another BLAS) binds none, and the scope is a no-op."""
    for name in _lapack.THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    _lapack._numpy_thread_count.cache_clear()
    monkeypatch.setattr(_lapack, "_NUMPY_EXTENSION", "_ctypes")
    try:
        assert _lapack._numpy_thread_count() is None
        with _lapack.numpy_blas_threads(1):
            pass
    finally:
        _lapack._numpy_thread_count.cache_clear()
