"""Machine and provenance record written next to every result.

Reads only: ``/proc/cpuinfo``, the sysfs cache description of cpu0 and,
through ``git rev-parse``, the checkout's HEAD when it is a git work tree.
Library versions and the BLAS build come from the workload process, which
has imported them.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> Dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the git work tree rooted at ``root``, or None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None   # not a work tree, or one that merely encloses ``root``
    return lines[1]


def machine_record() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def library_record() -> Dict:
    """Versions and BLAS build of the imported numpy/scipy (workload process)."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
    }
