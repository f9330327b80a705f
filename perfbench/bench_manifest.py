"""Host manifest stamped on every benchmark output."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

MANIFEST_FIELDS = (
    "nproc",
    "usable_cpus",
    "cpu_model",
    "python",
    "numpy",
    "git_sha",
    "git_dirty",
    "loadavg_start",
    "loadavg_end",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *args: str) -> str | None:
    """``git <args>`` in ``root``; None when ``root`` is not a checkout."""
    if not (root / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def start_manifest(root: Path, loadavg_start) -> dict:
    """Everything but the closing load average (taken at process start)."""
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": list(loadavg_start),
        "loadavg_end": None,
    }


def finish_manifest(manifest: dict) -> dict:
    return {**manifest, "loadavg_end": list(os.getloadavg())}
