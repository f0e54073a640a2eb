"""Facts about the machine and software a result was measured on.

Everything is read, never set: /proc and /sys for the CPU, caches and
memory, the interpreter and numpy for versions, and the checkout's
``.git`` directory (when there is one) for the commit.
"""
from __future__ import annotations

import os
import platform
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified":
            out[f"L{level}"] = size
    return out


def _mem_total() -> str | None:
    for line in (_read(Path("/proc/meminfo")) or "").splitlines():
        if line.startswith("MemTotal:"):
            return line.split(":", 1)[1].strip()
    return None


def _blas() -> str | None:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or a note that it is not a git repository."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return f"unknown (unresolved {ref})"


def facts(root: Path) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total": _mem_total(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "dynball_commit": git_commit(root),
    }
