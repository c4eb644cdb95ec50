"""Host fingerprint and CPU steal accounting for every benchmark result.

Timings only compare between like hosts, and on a shared virtual machine a
noisy run is often a run that lost CPU to its neighbours; the steal ticks
from ``/proc/stat`` over the run make that attributable.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np


def steal_ticks() -> int | None:
    """Cumulative CPU steal ticks of all CPUs, or None where not reported."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS name/version from NumPy's build info; threads from the library."""
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                info["threads"] = function()
                return info
    info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return info


def fingerprint() -> dict:
    """nproc, CPU model and the Python/NumPy/SciPy/BLAS versions in use."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
    }
