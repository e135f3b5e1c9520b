"""Thread policy for the OpenBLAS pools that the numpy and scipy wheels ship.

Every matrix `rih` diagonalizes is small enough that a second BLAS thread
does not pay, while an idle pool worker busy-waits between calls and burns a
core.  The CLI therefore runs each command on one thread, and
solver.ground_energy_search runs on one however it is called; each puts the
previous counts back when it returns.  Importing `rih` changes nothing, so a
library caller keeps its own setting everywhere else."""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path


@functools.cache
def _openblas():
    """(get, set) thread-count functions of each OpenBLAS pool found next to
    numpy and scipy; empty under any other BLAS build."""
    import numpy
    import scipy

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
