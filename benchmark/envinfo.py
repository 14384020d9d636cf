"""Environment record and BLAS thread setting for benchmark processes.

numpy and scipy each load their own OpenBLAS build.  Every benchmark
process runs them at one thread, which is never more than ``nproc``: the
variables are set before a process starts (see ``run.py``), whatever the
caller's environment holds, so that every run is measured the same way.
The handles found here only report the count actually in effect.

One thread because the matrices here are small (D^2 <= 256 for
superoperators): on the 2-core machine the benchmark was tuned on, OpenBLAS
at 2 threads made ``kraus_audit`` at D = 8 take 1.5-2 s instead of 0.26 s
and doubled the run-to-run spread of thermal_maps.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def single_thread_env(env: dict) -> dict:
    """Copy of ``env`` with every BLAS thread variable set to 1."""
    return {**env, **{var: "1" for var in THREAD_VARS}}


class _OpenBlas:
    def __init__(self, owner: str, path: Path, lib, names):
        self.owner = owner
        self.path = path
        self._get = getattr(lib, names[0])
        self._get.restype = ctypes.c_int
        config = getattr(lib, names[1])
        config.restype = ctypes.c_char_p
        self.config = config().decode(errors="replace")

    def get(self) -> int:
        return int(self._get())


def openblas_handles():
    """The OpenBLAS libraries bundled with numpy and scipy, when found."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for names in _SYMBOLS:
                if all(hasattr(lib, n) for n in names):
                    found.append(_OpenBlas(pkg.__name__, path, lib, names))
                    break
    return found


def record(handles) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas": [
            {"owner": h.owner, "library": h.path.name, "config": h.config,
             "threads_in_effect": h.get()}
            for h in handles
        ],
    }
