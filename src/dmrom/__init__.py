"""Manifold-learning forecast pipeline for multivariate time series.

Learn a low-dimensional spectral embedding of a high-dimensional series,
select the non-redundant coordinates, fit small forecasting models on them,
and lift long-horizon forecasts back to the measurement space.

Every OpenBLAS the package loads runs on one thread (see `_one_blas_thread`).
"""

import ctypes

import numpy  # noqa: F401  loads numpy's OpenBLAS

# per OpenBLAS build, the thread-count setter it exports: numpy's 64-bit-index
# build, scipy's 32-bit one, and an unprefixed system build of either width
_SET_NUM_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                    "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    numpy and scipy each load their own OpenBLAS, and each keeps a pool of
    one thread per CPU whose idle workers spin on the CPUs the pipeline
    needs; OpenBLAS also shuts its pool down at every fork and starts it
    again at its next threaded call. On one thread every BLAS result is the
    same bits at any `OPENBLAS_NUM_THREADS`, and the forked FNN workers keep
    the other CPUs busy. It runs at `import dmrom`, after numpy has loaded,
    and again in each module that imports scipy, which loads scipy's
    OpenBLAS, right after that import: no dmrom call sees another thread
    count. Without /proc, or with no OpenBLAS loaded, it does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:   # a mapped file of that name that is no library
            continue
        for name in _SET_NUM_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_one_blas_thread()
