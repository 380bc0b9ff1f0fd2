"""Process isolation and the environment record shared by the benchmark's scripts.

``isolate`` must run before numpy is imported: BLAS reads its thread count
once, when it loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # run output, results, spans

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def isolate():
    """Cut the process off from the caller's environment: no output-root
    prefix, and BLAS threads capped at the cores this process may use."""
    os.environ.pop("NFA_OUTPUT_ROOT", None)
    cap = str(nproc())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cap


def load_nfa():
    """Import the ``nfa`` package from this checkout's ``src``, never from
    anywhere else on the path. Raises ``ImportError`` when it is absent."""
    init = SRC / "nfa" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no nfa package at {init}")
    sys.path.insert(0, str(SRC))
    import nfa

    if Path(nfa.__file__).resolve() != init.resolve():
        raise ImportError(f"imported nfa from {nfa.__file__}, expected {init}")
    return nfa


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _numpy_build():
    import numpy as np

    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {}, []
    blas = info.get("Build Dependencies", {}).get("blas", {})
    simd = info.get("SIMD Extensions", {}).get("found", [])
    return blas, list(simd)


def fingerprint():
    """What decides the bits a run computes: the same fingerprint on two
    machines means reference digests recorded on one apply to the other.
    The BLAS thread count is left out: it does not change the digests."""
    import numpy as np

    blas, simd = _numpy_build()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": _cpu_model(),
        "simd": simd,
    }


def environment():
    """Everything recorded with a result."""
    import numpy as np

    blas, _ = _numpy_build()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "?"),
        "blas_version": blas.get("version", "?"),
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
