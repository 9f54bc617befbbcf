"""The thread timeout an OpenBLAS library is loaded with.

OpenBLAS reads ``OPENBLAS_THREAD_TIMEOUT`` once, in the constructor that
runs as the library loads: its workers busy-wait for 2^value cycles after
each BLAS call, then sleep.  At the default, 2²⁸ cycles (about 0.1 s), a
pool's workers spin through most of a run's Python work.  At 2¹⁶ cycles
(about 30 µs at 2.1 GHz) they sleep soon after the caller moves on.  On
two cores that saved as much CPU as the minimum, 2⁴ cycles, without its
cost: there the workers sleep after every call, each call waits for them
to wake, and dense runs took 4–8 % longer.  The timeout changes when the
workers sleep, not the thread count or how the work is split, so every
output keeps its bits.  This module imports nothing that loads a BLAS.
"""

from __future__ import annotations

import contextlib
import os

_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
_SHORT = "16"


@contextlib.contextmanager
def short_thread_timeout():
    """Set ``OPENBLAS_THREAD_TIMEOUT`` to 16 in the environment for the body
    alone, unless the user set a value, which is kept and used.

    Load an OpenBLAS (numpy's on ``import numpy``, scipy's with its LAPACK
    extension) inside it; afterwards ``os.environ`` is what it was, a
    failed load included.  A library loaded earlier keeps what it read.
    """
    user_set = _TIMEOUT in os.environ
    os.environ.setdefault(_TIMEOUT, _SHORT)
    try:
        yield
    finally:
        if not user_set:
            os.environ.pop(_TIMEOUT, None)
