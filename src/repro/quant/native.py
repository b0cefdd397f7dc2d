"""Loader of the compiled kernels (``_kernels.c``).

:func:`load` returns the kernel library, or ``None`` where the reference
code runs instead — :mod:`repro.quant.fused`'s NumPy quantizer, the
engine's scipy ``csr_matvecs`` and NumPy post stage (``LayerNorm`` → ReLU →
dropout, :mod:`repro.cluster.compute`): no C compiler, a big-endian host,
a failed build, an unloadable or unsafe cached file, or a self-test that
disagrees with that reference or calls back into :func:`load` — each logged
once, as one WARNING with the reason.  The tier is chosen by what this
module observes; no option, flag or environment variable does.

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

__all__ = ["FLAGS", "declare", "load", "status"]

#: Bit-identity with NumPy rules out ``-ffast-math`` and FMA contraction; a
#: cache shared between hosts (a network home) rules out ``-march=native``
#: (the CSR kernel's AVX2 / AVX-512 clones are picked at load time instead).
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_BIG_ENDIAN = sys.byteorder == "big"
_log = get_logger(__name__)
_lock = threading.Lock()
#: ``(library or None, description)`` once decided; per process.
_tier: tuple[ctypes.CDLL | None, str] | None = None
_build_thread: int | None = None  # the thread inside _find_or_build, if any


def load() -> ctypes.CDLL | None:
    """The compiled kernels, or ``None`` (the NumPy kernels run).  The first
    call finds or builds the library; the outcome is kept for the process.
    A call from inside that build (its self-test) raises rather than wait on
    the lock its own thread holds, so the build falls back to NumPy."""
    global _tier, _build_thread
    if _tier is None:
        if _build_thread == threading.get_ident():
            raise RuntimeError("load() re-entered from its own self-test")
        with _lock:
            if _tier is None:
                _build_thread = threading.get_ident()
                try:
                    _tier = _find_or_build()
                except Exception as exc:  # never fail a run over an optimisation
                    _log.warning("quant kernel: numpy (%s)", exc)
                    _log.debug("quant kernel: the loader's traceback", exc_info=True)
                    _tier = (None, f"numpy ({exc})")
                finally:
                    _build_thread = None
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
    declare(lib)
    from repro.quant.fused import kernels_agree  # the gate; fused imports this module

    if not kernels_agree(lib):
        raise RuntimeError("self-test disagrees with the reference kernels")
    return lib, f"native ({version}, {path})"


def declare(lib: ctypes.CDLL) -> None:
    """Argument types of every entry point (else ``ctypes`` passes C ints)."""
    ptr, i64, f32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_float
    signatures = {
        "repro_philox_lanes": [ptr, i64, ptr],
        "repro_quantize_pack_pairs": [ptr, ptr, i64, i64, *[ptr] * 4, i64, *[ptr] * 5],
        "repro_decode_rows": [*[ptr] * 4, i64, i64, ptr, ptr],
        "repro_add_rows": [ptr, i64, i64, ptr, ptr],
        "repro_csr_rows": [i64, *[ptr] * 4, i64, ptr, i64],
        "repro_post_forward": [i64, i64, *[ptr] * 3, f32, *[ptr] * 4],
        "repro_post_backward": [i64, *[ptr] * 7, i64, ptr],
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None


def _private(path: Path) -> bool:
    """Owned by this user and not writable by group or others."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _cache_dir() -> Path:
    """The per-user cache, else a private ``0700`` per-uid temp directory."""
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
        # Without ifunc support (compiler or libc) the CSR kernel is built
        # for the baseline instruction set only, rather than not at all.
        for extra in ((), ("-DREPRO_BASELINE_ONLY",)):
            cmd = [cc, *FLAGS, *extra, "-x", "c", "-", "-o", tmp]
            done = subprocess.run(cmd, input=source, capture_output=True, timeout=600)
            if done.returncode == 0:
                break
        else:
            tail = done.stderr.decode(errors="replace").strip()[-300:]
            raise RuntimeError(f"{cc} exited with {done.returncode}: {tail}")
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
