"""Paths, the pinned process environment and the machine record of a run.

The benchmark drives the program from the source tree next to it (``src/``),
never from an installed copy, so a checkout that lacks the tree fails at once.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Thread pools of numerical libraries stay at one thread so that only the
# program's own --threads setting adds parallelism; the timestamp makes every
# artifact byte-reproducible; the hash seed fixes set and dict iteration.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MSINV_TIMESTAMP": "2000-01-01T00:00:00",
    "PYTHONHASHSEED": "0",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing source tree or data)."""


def pin_environment() -> None:
    """Apply PINNED_ENV and drop MSINV_THREADS.

    PYTHONHASHSEED only takes effect at interpreter start, so when it differs
    the process replaces itself (same pid, no child) with the pinned value.
    Call this before numpy is imported.
    """
    os.environ.pop("MSINV_THREADS", None)
    restart = os.environ.get("PYTHONHASHSEED") != PINNED_ENV["PYTHONHASHSEED"]
    os.environ.update(PINNED_ENV)
    if restart:
        sys.stdout.flush()
        os.execv(sys.executable, sys.orig_argv)


def max_threads() -> int:
    """Worker threads the benchmark may ask for: at most 2 and at most nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def use_source_tree() -> None:
    """Put ``src`` first on sys.path and make sure msinv resolves there."""
    if not (SRC / "msinv" / "__init__.py").is_file():
        raise SetupError(f"no msinv source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import msinv

    if Path(msinv.__file__).resolve().parent != (SRC / "msinv").resolve():
        raise SetupError(f"msinv resolved to {msinv.__file__}, not to {SRC}")


def require(path: Path) -> Path:
    if not path.is_file():
        raise SetupError(f"missing input file {path}")
    return path


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> list[dict]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")):
        out.append({
            "level": _read(str(index / "level")).strip(),
            "type": _read(str(index / "type")).strip(),
            "size": _read(str(index / "size")).strip(),
        })
    return out


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])).strip() or None
    return head or None


def source_digest() -> str:
    """SHA-256 over the program's source files, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "msinv").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_used_max": max_threads(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": source_digest(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "msinv_threads_env": os.environ.get("MSINV_THREADS"),
    }
