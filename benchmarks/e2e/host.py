"""Host facts, process-tree accounting and leak checks (Linux ``/proc``)."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Set

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
SHM_DIRECTORY = "/dev/shm"


def filesystem_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            _, mount_point, fs_type = line.split()[:3]
            prefix = mount_point.rstrip("/") + "/"
            if (path + "/").startswith(prefix) and len(mount_point) > len(best):
                best, kind = mount_point, fs_type
    return kind


def git_commit(repo_root: str) -> str:
    """HEAD of ``repo_root``, or ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts(repo_root: str, workdir: str, fsync_policy: str,
               seed: int) -> Dict[str, object]:
    """What a reader needs to judge whether two results are comparable."""
    try:
        from repro.cpu import available_cpu_count
    except ImportError:  # the engine's helper is gone: ask the kernel
        def available_cpu_count():
            return len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "available_cpu_count": available_cpu_count(),
        "workdir_filesystem": filesystem_type(workdir),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fsync_policy": fsync_policy,
        "git_commit": git_commit(repo_root),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as stat:
        text = stat.read()
    # The command name may hold spaces; fields restart after its ')'.
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int, exclude: Iterable[int] = ()) -> Set[int]:
    """``root`` and every live descendant, minus the ``exclude`` subtrees."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError):
            continue  # exited while we were listing
    skip = set(exclude)
    tree = {root}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree and pid not in skip:
                tree.add(pid)
                grew = True
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by the live ``pids``
    (this process from its own clock, which is finer than ``/proc``'s
    10 ms ticks)."""
    seconds = 0.0
    for pid in pids:
        if pid == os.getpid():
            seconds += time.process_time()
            continue
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        seconds += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return seconds


def peak_rss_bytes(pids: Iterable[int]) -> int:
    """Sum of the peak resident set (VmHWM) of the live ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


def shm_listing() -> List[str]:
    """Names under ``/dev/shm`` (where the process backend's arenas live)."""
    try:
        return sorted(os.listdir(SHM_DIRECTORY))
    except OSError:
        return []


def tree_bytes(directory: str) -> int:
    """Bytes of every regular file under ``directory``."""
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total
