"""Host fingerprint and roofline probe, written into every output record.

The probe runs before and after each workload, so a box whose speed
drifts during a run shows in the data (``host.drift_frac``) instead of
being guessed from a noisy metric.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

__all__ = ["NOISY_DRIFT", "fingerprint", "probe", "drift", "peak_rss_mb"]

#: Relative probe change between the start and the end of a workload above
#: which its record is flagged ``noisy_host``.
NOISY_DRIFT = 0.15


def _proc_field(path: str, key: str) -> str:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit(repo_root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_vendor() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        return "unknown"


def fingerprint(repo_root: Path, seed: int, pinned_env: dict[str, str]) -> dict:
    """Who measured: ``pinned_env`` names the variables the runner pins."""
    return {
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "ram": _proc_field("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "env": {k: os.environ.get(k) for k in pinned_env},
        "commit": _commit(repo_root),
        "seed": seed,
    }


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> dict[str, float]:
    """What this host can do right now: copy bandwidth and sgemm rate.

    Runs in a child process (this file as a script): the 128 MiB it copies
    must not count towards the measured process's peak RSS.
    """
    out = subprocess.run(
        [sys.executable, __file__], check=True, capture_output=True, text=True, timeout=60
    )
    return json.loads(out.stdout)


def _probe_here() -> dict[str, float]:
    src = np.ones(8 << 20, dtype=np.float64)  # 64 MiB, well past the caches
    dst = np.empty_like(src)
    copy_s = _best(lambda: np.copyto(dst, src), 15)
    n = 768
    a = np.ones((n, n), dtype=np.float32)
    out = np.empty_like(a)
    gemm_s = _best(lambda: np.matmul(a, a, out=out), 30)
    return {
        "memcpy_gb_s": 2 * src.nbytes / copy_s / 1e9,  # read + write
        "sgemm_gflop_s": 2.0 * n**3 / gemm_s / 1e9,
    }


def drift(before: dict[str, float], after: dict[str, float]) -> float:
    return max(abs(after[k] / before[k] - 1.0) for k in before)


def peak_rss_mb() -> float:
    """``VmHWM`` of this process (its own high-water mark, reset on exec)."""
    return int(_proc_field("/proc/self/status", "VmHWM").split()[0]) / 1024.0


if __name__ == "__main__":
    print(json.dumps(_probe_here()))
