"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

The production build is ``-O3`` and trusts every offset and row index its
Python callers checked.  Here the same ``_kernels.c`` is built with
``-fsanitize=address,undefined -O1`` and driven, in a subprocess (the
sanitizer runtime must be preloaded into the interpreter), through the
loader's self-test and the hypothesis properties of
``test_native_kernels.py``: ragged groups, rows that share a byte
(dim·bits % 8 ≠ 0), 1-bit groups, permuted payload orders, empty pairs, a
receiver whose mailbox is missing a source, decode straight into halo rows
and into accumulated blocks, the CSR product over empty rows, repeated
columns, row ranges and widths of both accumulator forms, and the post
stage over empty blocks and rows, widths on and off every vector and
pairwise-block boundary, with dropout on and off.  An out-of-bounds read or
write, or undefined behaviour, aborts the subprocess: a failure here rather
than a corrupted digest somewhere else.  Skipped, with the reason, where the compiler or
its sanitizer runtime is missing.
"""

import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from repro.quant import native

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-O1", "-g", "-fPIC", "-shared",
            "-ffp-contract=off")  # fmt: skip

#: The properties the sanitized library runs through (all take ``lib`` and,
#: where they switch tiers, ``tier``).
PROPERTIES = (
    "test_philox_lanes_are_numpys",
    "test_quantize_kernel_is_numpys",
    "test_every_shard_decomposition_and_replay_emit_the_reference_bytes",
    "test_decode_is_payload_decode",
    "test_decode_index_lands_every_row",
    "test_native_decode_checks_what_the_kernel_trusts",
    "test_native_decode_accepts_views_and_other_integer_indices",
    "test_csr_kernel_is_scipys",
    "test_post_stage_kernel_is_numpys",
)

_DRIVER = r"""
import ctypes, importlib.util, inspect, sys
from contextlib import contextmanager

from repro.quant import fused, native

lib = ctypes.CDLL(sys.argv[1])
native.declare(lib)
spec = importlib.util.spec_from_file_location("kernel_properties", sys.argv[2])
suite = importlib.util.module_from_spec(spec)
spec.loader.exec_module(suite)


@contextmanager
def tier(chosen):
    saved = native._tier
    native._tier = (chosen, "sanitized (test)")
    try:
        yield
    finally:
        native._tier = saved


with tier(lib):
    assert fused.kernels_agree(lib), "self-test disagrees"
    for name in sys.argv[3:]:
        prop = getattr(suite, name)
        wanted = inspect.signature(prop).parameters
        prop(**{k: v for k, v in (("lib", lib), ("tier", tier)) if k in wanted})
        print("ok", name, flush=True)
"""


def _compiler() -> str:
    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    if cc is None:
        pytest.skip("no C compiler on PATH")
    return cc


def _build(cc: str, out: Path) -> str:
    """The sanitized library at ``out``; returns the runtime to preload."""
    runtime = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip(f"{cc} has no AddressSanitizer runtime (libasan.so)")
    source = resources.files("repro.quant").joinpath("_kernels.c").read_bytes()
    done = subprocess.run(
        [cc, *SANITIZE, "-x", "c", "-", "-o", str(out)],
        input=source,
        capture_output=True,
        timeout=600,
    )
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").strip()[-300:]
        pytest.skip(f"{cc} cannot build with {' '.join(SANITIZE[:2])}: {tail}")
    return runtime


def test_kernels_run_clean_under_address_and_undefined_sanitizers(tmp_path):
    cc = _compiler()
    library = tmp_path / "kernels-sanitized.so"
    runtime = _build(cc, library)
    suite = Path(__file__).with_name("test_native_kernels.py")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        "LD_PRELOAD": runtime,
        # The interpreter leaks by design; a leak report would be noise.
        "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
    }
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(library), str(suite), *PROPERTIES],
        cwd=tmp_path,  # hypothesis keeps its example database here
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    report = (done.stdout + done.stderr)[-4000:]
    assert done.returncode == 0, report
    assert done.stdout.count("ok ") == len(PROPERTIES), report
    assert native.FLAGS[0] not in SANITIZE  # never the production build
