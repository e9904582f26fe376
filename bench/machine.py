"""What the run measured on: CPU, caches, numpy and its BLAS, copy bandwidth.

Thread counts are recorded as found; the benchmark sets none of them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
# numpy wheels ship OpenBLAS with prefixed, 64-bit-suffixed symbols.
_BLAS_THREAD_FUNCS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")

LLC_NOTE = (
    "The rule that bandwidth arrays be 4x the last-level cache is not met: on "
    "the reference machine the L3 reports 300 MiB and RAM is about 8 GB, while "
    "the largest state a workload builds is 32 MiB. Every bytes and gbps figure "
    "is computed from array sizes; read gbps against machine.copy_gbps, measured "
    "in the same run on an array as large as the workload's largest state."
)


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cache_sizes() -> dict[str, str]:
    """Unified/data cache sizes by level, as sysfs reports them."""
    out: dict[str, str] = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _loaded_blas_libraries() -> list[str]:
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "blas" in path.lower():
                    libs.add(path)
    except OSError:
        pass
    return sorted(libs)


def blas_record() -> dict:
    record: dict = {"name": None, "version": None, "library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["name"], record["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for func_name in _BLAS_THREAD_FUNCS:
            func = getattr(lib, func_name, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                record["library"], record["threads"] = path, int(func())
                return record
    return record


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def copy_gbps(nbytes: int) -> float:
    """Median bandwidth of a numpy copy, counting one read and one write."""
    src = np.ones(max(1, nbytes // 16), dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    reps = max(1, int(2e7 // src.nbytes))  # about 20 MB copied per sample
    samples = []
    for _ in range(9):
        start = perf_counter()
        for _ in range(reps):
            np.copyto(dst, src)
        samples.append((perf_counter() - start) / reps)
    return 2 * src.nbytes / statistics.median(samples) / 1e9


def machine_record(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "caches": cache_sizes(),
        "src_lines": src_line_count(root),
        "llc_note": LLC_NOTE,
    }
