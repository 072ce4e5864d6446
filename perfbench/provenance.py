"""Where and on what a run measured: host, numeric stack, load, code.

Recorded only.  No metric is normalised by any of these values; they are
there so that a noisy set of runs can be diagnosed afterwards.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Thread-count variables that change how much CPU the BLAS layer burns.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Iterations of the fixed pure-Python loop in :func:`cpu_loop_s`.
LOOP_ITERATIONS = 1_000_000


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _git(root: Path, *args: str) -> Optional[str]:
    """Output of one git command in ``root`` (never above it), or None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> Dict[str, object]:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def host_stamp(root: Path) -> Dict[str, object]:
    """Code version, host and numeric stack of this run."""
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def cpu_loop_s(repeats: int = 3) -> List[float]:
    """Wall seconds of a fixed pure-Python loop, once per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(LOOP_ITERATIONS):
            total += value * value
        times.append(time.perf_counter() - start)
    return times


def steal_s() -> Optional[float]:
    """CPU seconds the hypervisor gave to others since boot (all CPUs)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def load_stamp() -> Dict[str, object]:
    """Load average, stolen CPU time and the fixed loop's timings, now."""
    return {
        "loadavg": list(os.getloadavg()),
        "steal_s": steal_s(),
        "cpu_loop_s": cpu_loop_s(),
    }
