"""Loader of the compiled quantization kernels (``_kernels.c``).

:func:`load` returns the kernel library, or ``None`` where the NumPy
kernels of :mod:`repro.quant.fused` run instead: no C compiler, a
big-endian host, a failed build, an unloadable or unsafe cached file, or a
self-test that disagrees with NumPy — each logged once, as one WARNING with
the reason.  The tier is chosen by what this module observes; there is no
option, flag or environment variable that selects it.

The library is built once per (source, flags, compiler version) into a
per-user cache outside the checkout — ``$XDG_CACHE_HOME`` or ``~/.cache``,
else a ``0700`` per-uid directory under the system temp dir — and renamed
into place, so concurrent builders each load a complete file.  A cached
file is loaded only if this user owns it and nobody else can write it.
``ctypes.CDLL`` calls release the GIL, so transport workers overlap.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from pathlib import Path

from repro.utils.logging import get_logger

__all__ = ["FLAGS", "load", "status"]

#: Bit-identity with NumPy rules out ``-ffast-math`` and FMA contraction; a
#: cache shared between hosts (a network home) rules out ``-march=native``.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_BIG_ENDIAN = sys.byteorder == "big"
_log = get_logger(__name__)
_lock = threading.Lock()
#: ``(library or None, description)`` once decided; per process.
_tier: tuple[ctypes.CDLL | None, str] | None = None


def load() -> ctypes.CDLL | None:
    """The compiled kernels, or ``None`` (the NumPy kernels run).  The first
    call finds or builds the library; the outcome is kept for the process."""
    global _tier
    if _tier is None:
        with _lock:
            if _tier is None:
                try:
                    _tier = _find_or_build()
                except Exception as exc:  # never fail a run over an optimisation
                    _log.warning("quant kernel: numpy (%s)", exc)
                    _log.debug("quant kernel: the loader's traceback", exc_info=True)
                    _tier = (None, f"numpy ({exc})")
    return _tier[0]


def status() -> str:
    """``native (cc <version>, <library path>)`` or ``numpy (<reason>)``."""
    load()
    return _tier[1]


def _find_or_build() -> tuple[ctypes.CDLL, str]:
    if _BIG_ENDIAN:
        raise RuntimeError("big-endian host")
    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    source = resources.files("repro.quant").joinpath("_kernels.c").read_bytes()
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, timeout=60, check=True
    ).stdout.splitlines()[0]
    key = hashlib.sha256(source + " ".join(FLAGS).encode() + version.encode())
    path = _cache_dir() / f"kernels-{key.hexdigest()[:16]}.so"
    if not path.exists():
        _build(cc, source, path)
    elif not _private(path):
        raise RuntimeError(f"{path} is not a private file of this user")
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        path.unlink(missing_ok=True)  # the next process rebuilds it
        raise RuntimeError(f"cannot load {path}: {exc}") from exc
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    signatures = {
        "repro_philox_lanes": [ptr, i64, ptr],
        "repro_quantize_pairs": [ptr, ptr, i64, i64, *[ptr] * 3, i64, *[ptr] * 4],
        "repro_decode_groups": [ptr, i64, ptr, ptr, i64, *[ptr] * 4],
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    # The load-time gate: a small fixed step through both tiers (imported
    # here: fused imports this module).
    from repro.quant.fused import kernels_agree

    if not kernels_agree(lib):
        raise RuntimeError("self-test disagrees with the NumPy kernels")
    return lib, f"native ({version}, {path})"


def _private(path: Path) -> bool:
    """Owned by this user and not writable by group or others."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _cache_dir() -> Path:
    """The per-user cache, else a ``0700`` per-uid directory under the
    system temp dir; either way private to this user."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    fallback = Path(tempfile.gettempdir()) / f"repro-quant-kernels-{os.getuid()}"
    candidates = (Path(home) / "repro-quant-kernels", fallback)
    for directory in candidates:
        if not directory.is_absolute():  # no home directory, or a relative XDG path
            continue
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            usable = _private(directory) and os.access(directory, os.W_OK | os.X_OK)
        except OSError:
            usable = False
        if usable:
            if directory is fallback:
                _log.warning("quant kernel: %s unusable, caching in %s", *candidates)
            return directory
    raise RuntimeError(f"no private writable cache directory among {candidates}")


def _build(cc: str, source: bytes, path: Path) -> None:
    """Compile beside ``path``, then rename into place (atomic: a concurrent
    builder or loader sees the old file, no file, or a complete new one)."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        cmd = [cc, *FLAGS, "-x", "c", "-", "-o", tmp]
        done = subprocess.run(cmd, input=source, capture_output=True, timeout=600)
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip()[-300:]
            raise RuntimeError(f"{cc} exited with {done.returncode}: {tail}")
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
