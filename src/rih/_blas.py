"""Thread policy for the OpenBLAS pools that the numpy and scipy wheels ship.

Every matrix `rih` diagonalizes is small enough that a second BLAS thread
does not pay, while an idle pool worker busy-waits between calls and burns a
core.  A pool reads its starting count, and starts its workers, when its
library loads; so the pools that importing `rih` loads load here, with
OPENBLAS_NUM_THREADS=1 set only while they do, and start at one thread.  The
environment is then put back as it was, so no child process inherits it.  A
caller who set one of the variables the library reads for its count, or who
loaded numpy before `rih`, keeps that count.

A pool already loaded is reached only through one_blas_thread: the CLI runs
each command inside it, and solver.ground_energy_search runs inside it however
it is called; each puts the previous counts back when it returns."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
from pathlib import Path

# what this OpenBLAS reads for its starting thread count
_COUNT_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_DEFAULT_NUM_THREADS",
)

# numpy's pool loads with numpy, scipy's with its BLAS-linked linalg modules
_window = "numpy" not in sys.modules and not any(v in os.environ for v in _COUNT_VARIABLES)
if _window:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy
    import scipy.sparse.linalg
finally:
    if _window:
        del os.environ["OPENBLAS_NUM_THREADS"]


@functools.cache
def _openblas():
    """(get, set) thread-count functions of each OpenBLAS pool found next to
    numpy and scipy; empty under any other BLAS build."""
    pools = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    pools.append((get, set_))
                    break
    return tuple(pools)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS pool at one thread, then restore the
    counts it had before."""
    pools = _openblas()
    saved = [get() for get, _ in pools]
    try:
        for _, set_ in pools:
            set_(1)
        yield
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)
