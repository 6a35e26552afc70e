"""Process environment of the benchmark: BLAS pinning, source path, facts.

Import this module before numpy: `prepare()` pins every BLAS the process
may load to one thread through the environment, which the BLAS reads only
when it is first loaded.
"""
from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no diraclab sources to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's own sources first on sys.path.

    Raises MissingSource when the checkout has no src/diraclab, so that an
    installed copy of the package is never benchmarked instead.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "diraclab" / "__init__.py").is_file():
        raise MissingSource(f"no diraclab package under {SRC}")
    sys.path.insert(0, str(SRC))


def _openblas_libs():
    """Loaded OpenBLAS builds of numpy and scipy, as (owner, CDLL) pairs."""
    import numpy
    import scipy
    for owner in (numpy, scipy):
        libdir = Path(owner.__file__).parent.parent / f"{owner.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            yield owner.__name__, ctypes.CDLL(str(path))


def _openblas_call(lib, stem: str, restype):
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", "", "_"):
            fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_facts() -> list[dict]:
    """Vendor, build string and live thread count of each loaded OpenBLAS."""
    out = []
    for owner, lib in _openblas_libs():
        config = _openblas_call(lib, "get_config", ctypes.c_char_p)
        out.append({
            "owner": owner,
            "vendor": "OpenBLAS",
            "config": config.decode().strip() if config else "unknown",
            "threads": _openblas_call(lib, "get_num_threads", ctypes.c_int),
        })
    return out


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = blas_facts()
    for entry in blas:
        if entry["threads"] not in (None, BLAS_THREADS):
            raise RuntimeError(f"{entry['owner']} BLAS runs "
                               f"{entry['threads']} threads, not "
                               f"{BLAS_THREADS}")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
    }
