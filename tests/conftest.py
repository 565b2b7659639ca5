import ctypes
import glob
import os

import numpy as np
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def _openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs on (``SkylakeX``, ``Haswell``, ...), or ``unknown``."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    # tests/golden/ holds one set per recorded kernel; test_golden.py fails on any other
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"openblas kernel: {_openblas_kernel()}, OPENBLAS_NUM_THREADS={threads}"
