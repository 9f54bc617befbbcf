"""LAPACK routines bound with ctypes, and the dense eigensolver that runs
on them in place.

A routine is looked up among the dependencies of an extension module that
links an OpenBLAS: numpy's ``numpy.linalg._umath_linalg``, whose ILP64
OpenBLAS names it ``scipy_<name>_64_`` (``<name>_64_`` in numpy 1.x wheels)
and takes 64-bit INTEGERs, and scipy's ``scipy.linalg._flapack``, whose
OpenBLAS names it ``scipy_<name>_`` (or ``<name>_``) and takes 32-bit ones.
Opening the extension's file adds no copy of a library already loaded.

:func:`eigh_in_place` runs numpy's own ``dsyevd`` or ``zheevd`` on an array
the caller owns, with the workspace of LAPACK's own query, as
``np.linalg.eigh`` and ``eigvalsh`` do, and so with their bits; numpy would
first copy the matrix and then copy the eigenvectors out, two blocks
outside the array allocator.

:func:`numpy_blas_threads` sets the thread count of numpy's OpenBLAS pool
for a scope, through the same library's own setter.  The CLI runs a dense
``bound`` or ``scan`` whose eigensolve blocks are small on one thread with
it (:data:`depthbound.cli.BLAS_CROSSOVER`); library calls keep the pool as
it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass

import numpy as np

from ._openblas import short_thread_timeout
from .states import NumericalConsistencyError

_SCIPY_EXTENSION = "scipy.linalg._flapack"
_NUMPY_EXTENSION = "numpy.linalg._umath_linalg"

#: The size of the bands :func:`eigh_in_place` moves a triangle in.
_BAND_BYTES = 2**18


@dataclass(frozen=True)
class Lapack:
    """An opened library with LAPACK (or OpenBLAS) symbols: the name
    patterns they carry and the C type of their INTEGER."""

    library: ctypes.CDLL
    symbols: tuple[str, ...]
    integer: type

    def bind(self, name: str, *args) -> ctypes._CFuncPtr:
        """The routine ``name`` under the first pattern the library has,
        declared with ``args`` followed by the length of each CHARACTER
        argument (a ``c_char_p`` in ``args``).  A routine found under no
        pattern raises ``LookupError``."""
        for pattern in self.symbols:
            try:
                routine = self.library[pattern.format(name)]
            except AttributeError:
                continue
            chars = sum(arg is ctypes.c_char_p for arg in args)
            routine.argtypes, routine.restype = (*args, *(ctypes.c_size_t,) * chars), None
            return routine
        raise LookupError(f"no LAPACK {name} among {self.symbols}")


def scipy_lapack() -> Lapack:
    """The LAPACK of the OpenBLAS that scipy's compiled LAPACK extension
    links.

    The extension's file is looked up in scipy's package directory
    (``find_spec`` imports nothing) and opened as a shared library, which
    loads it and its OpenBLAS but never initialises its Python module: no
    scipy module is imported.  Without the file, the normal import system
    loads the module and its file is opened.

    scipy's OpenBLAS loads inside
    :func:`~depthbound._openblas.short_thread_timeout`, as numpy's does at
    ``import depthbound``: unless the user set a thread timeout, its pool
    sleeps soon after each call instead of spinning ~0.1 s; its thread
    count, and so every bit, is kept."""
    with short_thread_timeout():
        spec = importlib.util.find_spec("scipy")
        roots = spec.submodule_search_locations if spec is not None else ()
        paths = (os.path.join(root, "linalg", "_flapack" + suffix)
                 for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((path for path in paths if os.path.isfile(path)), None)
        library = ctypes.CDLL(path or importlib.import_module(_SCIPY_EXTENSION).__file__)
    return Lapack(library, ("scipy_{}_", "{}_"), ctypes.c_int)


_NUMPY_LOCK = threading.Lock()
#: numpy's routines bound so far, by name; None where numpy's linalg
#: extension links no LAPACK under the ILP64 names.
_numpy_routines: dict[str, ctypes._CFuncPtr | None] = {}


def _numpy_signatures() -> dict[str, tuple]:
    char, i = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)
    d, z = np.ctypeslib.ndpointer(np.float64), np.ctypeslib.ndpointer(np.complex128)
    iwork = np.ctypeslib.ndpointer(np.int64)
    return {
        "dsyevd": (char, char, i, d, i, d, d, i, iwork, i, i),
        "zheevd": (char, char, i, z, i, d, z, i, d, i, iwork, i, i),
        "dpotrf": (char, i, d, i, i),
    }


def numpy_routine(name: str) -> ctypes._CFuncPtr | None:
    """``dsyevd``, ``zheevd`` or ``dpotrf`` of the OpenBLAS numpy's linalg
    extension links, bound once per process under a lock, or None where
    that extension has no ILP64 LAPACK symbols (a numpy built on another
    LAPACK).  numpy's OpenBLAS is loaded already: the extension is imported
    with numpy."""
    with _NUMPY_LOCK:
        if name not in _numpy_routines:
            try:
                library = ctypes.CDLL(importlib.import_module(_NUMPY_EXTENSION).__file__)
                lapack = Lapack(library, ("scipy_{}_64_", "{}_64_"), ctypes.c_int64)
                _numpy_routines[name] = lapack.bind(name, *_numpy_signatures()[name])
            except (OSError, LookupError):
                _numpy_routines[name] = None
        return _numpy_routines[name]


#: The environment variables OpenBLAS reads its thread count from.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _numpy_thread_count() -> tuple[ctypes._CFuncPtr, ctypes._CFuncPtr] | None:
    """The getter and the setter of the thread count of numpy's OpenBLAS
    pool (``scipy_openblas_get_num_threads64_`` and ``…_set_…``, without
    the ``scipy_`` prefix in numpy 1.x wheels), bound once, or None where
    numpy links another BLAS."""
    try:
        library = ctypes.CDLL(importlib.import_module(_NUMPY_EXTENSION).__file__)
        openblas = Lapack(library, ("scipy_openblas_{}64_", "openblas_{}64_"), ctypes.c_int)
        get, set_ = openblas.bind("get_num_threads"), openblas.bind("set_num_threads", ctypes.c_int)
    except (OSError, LookupError):
        return None
    get.restype = ctypes.c_int
    return get, set_


@contextlib.contextmanager
def numpy_blas_threads(count: int | None):
    """numpy's OpenBLAS pool at ``count`` threads for the body, and back at
    the count it had on every exit, errors included.  The count is global:
    worker threads started in the body share it.  None, or a thread count
    the user set in the environment (:data:`THREAD_VARIABLES`), leaves the
    pool as it is, and the getter and setter are not looked up; a numpy on
    another BLAS has none, and nothing changes either.  A setter call costs
    under 1 µs.  A count changes how OpenBLAS splits its products, and so
    their last bits (the bits of ``OPENBLAS_NUM_THREADS=count``)."""
    pool = None if count is None or any(v in os.environ for v in THREAD_VARIABLES) else _numpy_thread_count()
    if pool is None:
        yield
        return
    get, set_ = pool
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _malloc_trim() -> ctypes._CFuncPtr | None:
    """glibc's ``malloc_trim``, looked up among the running process's
    symbols, or None for a C library without it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return trim


def _bands(a: np.ndarray):
    """(start, stop) of the bands of rows :func:`eigh_in_place` moves a
    triangle in, each at most ``_BAND_BYTES`` wide."""
    n = a.shape[0]
    step = max(1, _BAND_BYTES // (a.itemsize * n))
    for start in range(0, n, step):
        yield start, min(start + step, n)


def _lower_to_upper(a: np.ndarray) -> None:
    """Copy a's lower triangle onto its upper, transposed, a band at a time.

    LAPACK reads a C-order array as its transpose: with ``uplo = 'L'`` it
    then reads a's upper triangle.  After the copy that is a's lower
    triangle, unconjugated, which is what numpy's ``eigh`` hands LAPACK
    from its Fortran-order copy: the bits do not rest on a being exactly
    symmetric (or Hermitian)."""
    for lo, hi in _bands(a):
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        tile = a[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        tile[upper] = tile.T[upper]


def _transpose(a: np.ndarray) -> None:
    """a = aᵀ in place, a band at a time."""
    for lo, hi in _bands(a):
        upper = a[lo:hi, hi:].copy()
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        a[hi:, lo:hi] = upper.T
        del upper
        a[lo:hi, lo:hi] = a[lo:hi, lo:hi].T.copy()


def eigh_in_place(a: np.ndarray, vectors: bool = True) -> np.ndarray:
    """The eigenvalues of the Hermitian matrix in ``a``, ascending, with the
    bits of ``np.linalg.eigh(a)`` (``eigvalsh(a)`` without ``vectors``),
    which reads a's lower triangle.

    ``a`` is a C-contiguous, writable float64 or complex128 square array.
    With ``vectors`` it is overwritten by the eigenvectors, as columns in
    numpy's C-order layout; without, its contents are lost.  ``dsyevd`` or
    ``zheevd`` of numpy's OpenBLAS runs on a itself (:func:`numpy_routine`)
    with the workspace LAPACK's query asks for, the one numpy allocates:
    with the eigenvectors 1 + 6N + 2N² reals for ``dsyevd`` (2N + N² complex
    and 1 + 5N + 2N² real ones for ``zheevd``), for the values alone about
    2N.  The workspace is freed before LAPACK's
    Fortran-order eigenvectors are transposed into place, a band at a time,
    and with the eigenvectors the heap's free pages are then handed back to
    the system (glibc's ``malloc_trim``, where the C library has it): glibc
    keeps a freed workspace below its trim threshold resident, and the
    arrays that follow, of other sizes, reuse little of it.  At the centre
    of n = 11 that kept a weak-x ``bound`` 1.7 MB above numpy's ``eigh``.
    The call releases the GIL.  LAPACK's failure to converge (INFO > 0)
    raises :class:`NumericalConsistencyError`.  Where numpy links no LAPACK
    this module can bind, numpy's ``eigh`` runs and its result is copied
    into a.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype not in (np.float64, np.complex128):
        raise ValueError("eigh_in_place needs a square float64 or complex128 array")
    if not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("eigh_in_place needs a writable C-contiguous array")
    real = a.dtype == np.float64
    name = "dsyevd" if real else "zheevd"
    routine = numpy_routine(name)
    if routine is None:
        if not vectors:
            return np.linalg.eigvalsh(a)
        w, a[...] = np.linalg.eigh(a)
        return w
    n = a.shape[0]
    w = np.empty(n)
    if not n:
        return w
    _lower_to_upper(a)
    job = b"V" if vectors else b"N"
    size, info = ctypes.c_int64(n), ctypes.c_int64()
    # Workspace query: each array's first entry receives its size (dsyevd
    # takes no real workspace, which stays empty).
    work, rwork, iwork = np.zeros(1, a.dtype), np.zeros(1), np.zeros(1, np.int64)
    for query in (True, False):
        if not query:
            work = np.empty(int(work[0].real), a.dtype)
            rwork = np.empty(int(rwork[0]))
            iwork = np.empty(int(iwork[0]), np.int64)
        lengths = [ctypes.c_int64(-1 if query else buf.size) for buf in (work, rwork, iwork)]
        if real:
            routine(job, b"L", size, a, size, w, work, lengths[0], iwork, lengths[2], info, 1, 1)
        else:
            routine(job, b"L", size, a, size, w, work, lengths[0], rwork, lengths[1], iwork, lengths[2], info, 1, 1)
        if info.value < 0:
            raise ValueError(f"LAPACK {name} rejected argument {-info.value}")
    del work, rwork, iwork
    if vectors and (trim := _malloc_trim()) is not None:
        trim(0)
    if info.value > 0:
        raise NumericalConsistencyError(f"LAPACK {name} did not converge (info = {info.value})")
    if vectors:
        _transpose(a)
    return w


def cholesky_succeeds(a: np.ndarray) -> bool:
    """Whether the real symmetric matrix in ``a`` has a Cholesky factor,
    that is, whether it is positive definite, by numpy's ``dpotrf`` on a
    itself (a C-contiguous, writable float64 square array, which the
    factor overwrites).  As in ``np.linalg.cholesky``, a's lower triangle
    is factored (:func:`_lower_to_upper`).  Where numpy links no LAPACK
    this module can bind, ``np.linalg.cholesky`` decides."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64:
        raise ValueError("cholesky_succeeds needs a square float64 array")
    if not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("cholesky_succeeds needs a writable C-contiguous array")
    routine = numpy_routine("dpotrf")
    if routine is None:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    _lower_to_upper(a)
    size, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64()
    routine(b"L", size, a, ctypes.c_int64(max(1, a.shape[0])), info, 1)
    if info.value < 0:
        raise ValueError(f"LAPACK dpotrf rejected argument {-info.value}")
    return info.value == 0
