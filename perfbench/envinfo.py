"""Print, as one JSON line, the environment a pass runs in.

Run in the same interpreter and path as the passes, so that the versions and
the BLAS thread count stamped on a result are the ones the passes used.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

import numpy
import scipy

import decolab

#: the thread-count getter of the OpenBLAS that numpy wheels bundle
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if not found."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                            "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "decolab": decolab.__version__,
        "decolab_file": decolab.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "cpu_model": cpu_model(),
    }


if __name__ == "__main__":
    sys.stdout.write(json.dumps(environment()) + "\n")
