"""Machine fingerprint, calibration loop, process-tree memory and percentiles.

The fingerprint and the calibration-loop time are diagnostics: they are
printed beside every run so two runs can be compared for the machine they
ran on, and they never scale a metric.
"""

from __future__ import annotations

import os
import platform
import threading
import time

#: sampling period of the process-tree RSS watcher (seconds)
RSS_PERIOD = 0.02


def calibration_seconds() -> float:
    """Wall time of a fixed numpy loop (a machine-speed diagnostic only)."""
    import numpy as np

    a = np.arange(100, dtype=np.int64).reshape(10, 10)
    started = time.perf_counter()
    for _ in range(20_000):
        a = np.minimum(a, a[:, :1] + a[:1, :])
    return time.perf_counter() - started


def fingerprint() -> dict:
    """nproc, CPU model, python, numpy and load average of this machine."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": round(calibration_seconds(), 4),
    }


def cpu_steal(since: "tuple[int, int] | None" = None):
    """``(steal, total)`` jiffies from ``/proc/stat``, or the steal share since.

    Time the hypervisor gave this machine's CPUs to someone else: a
    diagnostic for runs that read slow, never used to correct a metric.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        fields = [0] * 8
    now = (fields[7] if len(fields) > 7 else 0, sum(fields))
    if since is None:
        return now
    total = now[1] - since[1]
    return round((now[0] - since[0]) / total, 4) if total else 0.0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                out.extend(int(c) for c in handle.read().split())
    except OSError:
        pass
    return out


def tree_rss_bytes(root: int, include_root: bool = True) -> int:
    """Summed resident set size of *root*'s live descendants, and of *root*."""
    total = 0
    pending = [root] if include_root else _children(root)
    page = os.sysconf("SC_PAGE_SIZE")
    while pending:
        pid = pending.pop()
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
        pending.extend(_children(pid))
    return total


class TreeRSSWatcher:
    """Background sampler of the peak summed RSS of one process tree."""

    def __init__(self, root: int, include_root: bool = True):
        self.root = root
        self.include_root = include_root
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.root, self.include_root))
            self._stop.wait(RSS_PERIOD)

    def __enter__(self) -> "TreeRSSWatcher":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


#: ``prctl`` option that makes orphaned descendants children of the caller
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose parent dies.

    A process started by one of our children can outlive it (the
    ``multiprocessing`` resource tracker of a shard coordinator or a serve
    pool does); adopted, it can be waited for by :func:`reap_children`.
    Linux only; elsewhere this does nothing.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_children(grace: float = 10.0) -> list[int]:
    """Wait until this process has no child left; return the pids reaped.

    This process's own ``multiprocessing`` resource tracker is stopped
    first (it would otherwise outlive this process).  Children get *grace* seconds to
    end by themselves and are then killed; every one is waited for.
    """
    import signal
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    reaped: list[int] = []
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped  # no child left, running or ended
        if pid:
            reaped.append(pid)
            continue
        if time.monotonic() > deadline:
            for pid in _children(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def tail_percentile(values, beyond: int = 10) -> "tuple[float, float] | None":
    """The highest percentile with at least *beyond* samples above it.

    Returns ``(percentile, value)`` -- the value at that percentile
    (nearest rank) -- or None when fewer than ``beyond + 1`` samples exist.
    """
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based rank with exactly `beyond` samples above it
    return 100.0 * rank / n, values[rank - 1]
