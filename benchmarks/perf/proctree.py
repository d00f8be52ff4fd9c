"""CPU time and resident memory of a workload's own process tree, read
from ``/proc`` and ``getrusage`` (Linux only, like the fork pool the
workloads exercise).

A lap's CPU must include pool workers forked and reaped inside the lap
(they land in ``RUSAGE_CHILDREN``) and, for the serve workload, the
daemon and its workers, which outlive the lap (read live from
``/proc/<pid>/stat``).
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

__all__ = [
    "descendants",
    "process_cpu_s",
    "process_rss_kib",
    "shm_segments",
    "tree_cpu_s",
    "tree_peak_rss_mib",
]

_TICK = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> list[int]:
    """Live descendants of ``pid``, nearest first."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for children in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(k) for k in children.read_text().split()]
            except OSError:  # the task exited between glob and read
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name (field 2) may hold spaces; fields resume after ")"
    return text[text.rindex(")") + 2:].split()


def process_cpu_s(pid: int) -> float:
    """user+sys of ``pid`` and of the children it has waited for; 0.0
    once the process is gone."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of the full line
    return sum(int(f) for f in fields[11:15]) / _TICK


def _status_kib(pid: int, key: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def process_rss_kib(pid: int) -> float:
    """Current resident set of ``pid`` in KiB (0.0 once it is gone)."""
    return _status_kib(pid, "VmRSS")


def tree_cpu_s() -> float:
    """user+sys consumed so far by this process, every child it has
    reaped, and every live descendant."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        time.process_time()
        + reaped.ru_utime
        + reaped.ru_stime
        + sum(process_cpu_s(pid) for pid in descendants(os.getpid()))
    )


def tree_peak_rss_mib() -> float:
    """The largest resident-set high-water mark any single process of
    this tree has reached: this process, any reaped child, any live
    descendant."""
    peaks_kib = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    peaks_kib.extend(
        _status_kib(pid, "VmHWM") for pid in descendants(os.getpid())
    )
    return max(peaks_kib) / 1024.0


def shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments present
    (the dataset cache's ``psm_*``); a workload must leave none behind."""
    try:
        return {p.name for p in Path("/dev/shm").glob("psm_*")}
    except OSError:
        return set()
