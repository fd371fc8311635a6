"""Where and on what a benchmark result was measured."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``root/.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 (16 hex digits) over the package sources, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filesystem_type(path: Path) -> Optional[str]:
    """Type of the filesystem holding ``path`` (from the mount table)."""
    target = str(path.resolve())
    best, fstype = "", None
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def load_average() -> Optional[list]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def provenance(root: Path, scratch: Path) -> Dict[str, Any]:
    """Provenance of a run from checkout ``root``; request journals, when
    the traced run writes them, go under ``scratch``."""
    import numpy

    fstype = filesystem_type(scratch)
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        "loadavg_start": load_average(),
        "journal_fs": fstype,
        "journal_tmpfs": fstype == "tmpfs",
        "argv": sys.argv[1:],
    }
