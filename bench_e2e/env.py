"""Environment header recorded beside every number (Pellegrini et al.)."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = ["pin_to_one_cpu", "time_wait_sockets", "environment"]

REPO_ROOT = Path(__file__).resolve().parent.parent


def pin_to_one_cpu() -> "int | None":
    """Confine this process, and every thread and child it starts, to the
    highest-numbered CPU it may use; returns it (None where unsupported).

    The program is one GIL-bound process.  Left free on a 2-vCPU shared
    VM, every cross-thread wake-up crosses vCPUs, and what that costs
    depends on where the host last placed the two vCPUs: measured here,
    the same run is 1.5-2x slower for at least 40 s after anything kept
    both cores busy, and fast again after 30 s of idling.  One CPU takes
    the host's placement out of the numbers (see README).
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except AttributeError:          # not Linux
        return None
    return cpu


def _read(path: str) -> "str | None":
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def time_wait_sockets() -> int:
    """TCP sockets in TIME_WAIT (``tw`` of /proc/net/sockstat); 0 if unknown."""
    for line in (_read("/proc/net/sockstat") or "").splitlines():
        fields = line.split()
        if fields[:1] == ["TCP:"] and "tw" in fields:
            return int(fields[fields.index("tw") + 1])
    return 0


def _git(*args: str) -> "str | None":
    try:
        done = subprocess.run(("git", *args), cwd=REPO_ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(*, seed: int, window_s: float, warmup_s: float) -> dict:
    """Everything needed to judge whether two results are comparable."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    return {
        "git_commit": _git("rev-parse", "HEAD"),    # None outside a git repo
        "git_dirty": bool(status) if status is not None else None,
        "nproc": nproc,
        # After pin_to_one_cpu() this is the one CPU the run is confined to.
        "sched_getaffinity": (sorted(os.sched_getaffinity(0))
                              if hasattr(os, "sched_getaffinity") else None),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "gil_switch_interval_s": sys.getswitchinterval(),
        "loadavg_1min_at_start": load1,
        # Another tenant already keeps every core busy: treat the numbers
        # of this run as suspect.
        "noisy": load1 > nproc,
        "ip_local_port_range": _read("/proc/sys/net/ipv4/ip_local_port_range"),
        "network": "loopback",
        "seed": seed,
        "window_s": window_s,
        "warmup_s": warmup_s,
    }
