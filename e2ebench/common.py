"""Paths, the pinned child environment and small shared helpers."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import time
from typing import Dict, Iterable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".e2ebench_cache")
#: Scratch space of this benchmark process, removed when the run ends.
WORK = os.path.join(ROOT, ".e2ebench_work", str(os.getpid()))

#: BLAS threads every process sees, on every commit.
BLAS_THREADS = 1

#: Fabric worker processes for the ``procpool`` backend.
PROC_WORKERS = 2

clock = time.perf_counter
sleep = time.sleep


def pinned_env() -> Dict[str, str]:
    """The environment of every child: pinned threads, no stray knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[name] = str(BLAS_THREADS)
    env["REPRO_PROC_WORKERS"] = str(PROC_WORKERS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def environment() -> Dict[str, object]:
    """What the numbers were measured on; printed with every result."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "proc_workers": PROC_WORKERS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
    }


def nproc() -> int:
    return int(environment()["nproc"])


def source_hash() -> str:
    """Digest of the program's sources: keys cached per-commit results."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def recorded_digests() -> Dict[str, str]:
    path = os.path.join(CACHE, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_digest(key: str, digest: str) -> None:
    table = recorded_digests()
    table[key] = digest
    os.makedirs(CACHE, exist_ok=True)
    tmp = os.path.join(CACHE, "digests.json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(table, handle)
    os.replace(tmp, os.path.join(CACHE, "digests.json"))


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(WORK))
    except OSError:
        pass  # another run still has its own scratch directory there


def log(message: str) -> None:
    print(message, file=sys.stdout, flush=True)
