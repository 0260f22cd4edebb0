"""The machine stamp recorded with every result."""

from __future__ import annotations

import os
import platform
import resource

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _openblas_version() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown"


def stamp() -> dict:
    """``nproc``, interpreter and library versions, BLAS/OMP thread env."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "machine": platform.machine(),
    }


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks from ``/proc/stat``: time a hypervisor
    gave this machine's CPUs to someone else, and all time."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return round((after[0] - before[0]) / total, 4) if total else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
