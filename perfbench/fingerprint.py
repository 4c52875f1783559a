"""Host fingerprint carried by every benchmark result record."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, Optional

#: Thread-pool variables pinned to 1 in every child process, so BLAS or
#: OpenMP pools never compete with the shard worker for the host's cores.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def cpu_model() -> str:
    """The CPU model name from ``/proc/cpuinfo`` (platform name elsewhere)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_state(root: str) -> Dict[str, Optional[object]]:
    """``{"git_rev", "git_dirty"}`` of ``root``; None outside a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return {"git_rev": None, "git_dirty": None}
    try:
        rev = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev, "git_dirty": bool(status.strip())}


def host_fingerprint(root: str) -> Dict[str, object]:
    """Everything about the host that a run's numbers depend on.

    ``numpy`` and ``kernel_backend`` are filled in from the child
    processes, which import the simulator; ``load_end`` when the run ends.
    """
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "load_start": list(os.getloadavg()),
        "load_end": None,
        "python": platform.python_version(),
        "numpy": None,
        "kernel_backend": None,
        **git_state(root),
        "thread_env": dict(THREAD_ENV),
    }
