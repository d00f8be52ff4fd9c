"""Host fingerprint and the environment every benchmark child runs in.

Two records are comparable only when they come from like hosts;
``compare`` refuses otherwise (see :data:`IDENTITY_KEYS`).
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

__all__ = ["IDENTITY_KEYS", "PINNED_ENV", "REPO_ROOT", "child_env", "fingerprint"]

#: The checkout this benchmark sits in (``benchmarks/perf/`` → root).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``nproc`` is 2 on the reference host: a BLAS that spins up its own
#: threads under a two-process workload oversubscribes it, and run-to-run
#: spread follows. Set on spawned children only — not a repo knob.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Fingerprint fields that must match for two records to be compared
#: (the git sha is what a comparison is *about*, load is per run).
IDENTITY_KEYS = ("cpus", "machine", "python", "numpy", "blas", "thread_env")


def child_env(tmp_dir: Path) -> dict[str, str]:
    """The environment for a benchmark child: thread pins, the
    checkout's ``src`` first on the path (so the checkout is what gets
    measured, not an installed copy), temp files inside the checkout."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp_dir)
    return env


def _git_sha() -> str:
    # the driver's checkout is not a git repository
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def fingerprint() -> dict:
    """What must be equal for two runs' numbers to be comparable, plus
    the load the host was under when this run started."""
    import numpy as np

    cpus = sorted(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "cpus": len(cpus),
        "cpu_ids": cpus,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "thread_env": dict(PINNED_ENV),
        "git_sha": _git_sha(),
        "loadavg_1m": load[0],
        "overloaded": load[0] > len(cpus),
    }
