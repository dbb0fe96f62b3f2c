"""Record of the software and thread environment a result was measured in.

numpy and scipy each ship their own OpenBLAS build, so a process holds two
separate BLAS thread pools. Both are reported, with their thread counts
read through ctypes where the library exports the getter.
"""

import ctypes
import os
import platform

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _blas_build(config: dict) -> dict:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in
            ("name", "version", "openblas configuration", "lib directory")}


def _loaded_openblas() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.rstrip().endswith(".so")})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
        else:
            threads[os.path.basename(path)] = None
    return threads


def record() -> dict:
    import scipy.linalg  # noqa: F401 -- maps scipy's OpenBLAS

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(np.show_config(mode="dicts")),
        "scipy_blas": _blas_build(scipy.show_config(mode="dicts")),
        "openblas_threads": _loaded_openblas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "nproc": affinity,
        "machine": platform.machine(),
    }
