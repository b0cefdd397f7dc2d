"""The kernel loader fails safe: every failure ends in a working NumPy run
and exactly one WARNING that names the reason.

Each case starts from an empty cache in a temporary ``XDG_CACHE_HOME`` and
an undecided loader (``native._tier`` reset; ``monkeypatch`` restores the
session's tier afterwards).  Also here: what a safe cache looks like, that
concurrent builders and later processes share one complete build, and that
the C source ships as package data.
"""

import logging
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.quant import native
from repro.quant.fused import FusedStepEncoder, decode_step
from repro.quant.mixed import MixedPrecisionEncoder
from repro.quant.stochastic import KeyedRounding

needs_compiler = pytest.mark.skipif(
    not any(map(shutil.which, ("cc", "gcc", "clang"))), reason="no C compiler on PATH"
)


@pytest.fixture()
def cache(monkeypatch, tmp_path):
    """An empty per-user cache and a loader that has not decided yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_tier", None)
    return tmp_path / "xdg" / "repro-quant-kernels"


_LOAD = "import sys; from repro.quant import native; sys.exit(native.load() is None)"
_STATUS = "from repro.quant import native; print(native.status())"


def _python(code, **popen):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.Popen([sys.executable, "-c", code], env=env, **popen)


def _warnings(caplog):
    return [r for r in caplog.records if r.levelno >= logging.WARNING]


def _assert_working_run():
    """One mixed-width step through the program's entry points, against the
    per-message reference encoder — on whatever tier the loader chose."""
    gen = np.random.default_rng(0)
    values = gen.normal(size=(11, 9)).astype(np.float32)
    bits = gen.choice([2, 4, 8], 11)
    encoder = FusedStepEncoder(KeyedRounding(4))
    plan = encoder.plan_for(
        "k", [(0, 1)], np.array([11]), [(0, 0, 11)], np.arange(11), bits, 9
    )
    payload = encoder.encode_step(plan, {0: values}, coords=("fwd", 0))[(0, 1)]
    reference = MixedPrecisionEncoder(KeyedRounding(4))
    want = reference.encode(values, bits, ("fwd", 0, 0, 1))
    for got_stream, want_stream in zip(payload.streams, want.streams):
        assert got_stream.tobytes() == want_stream.tobytes()
    assert decode_step({0: payload})[0].tobytes() == want.decode().tobytes()


def _assert_numpy_fallback(caplog, reason):
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert native.load() is None
        assert native.load() is None  # decided once: no retry, no second warning
        _assert_working_run()
    status = native.status()
    assert status.startswith("numpy (") and reason in status
    (record,) = _warnings(caplog)
    assert reason in record.getMessage()


def test_no_compiler_on_path(cache, caplog, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    _assert_numpy_fallback(caplog, "no C compiler on PATH")
    assert not cache.exists()  # nothing was even attempted


def test_big_endian_host(cache, caplog, monkeypatch):
    monkeypatch.setattr(native, "_BIG_ENDIAN", True)
    _assert_numpy_fallback(caplog, "big-endian host")


def test_compiler_cannot_even_report_its_version(cache, caplog, monkeypatch, tmp_path):
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\nexit 3\n")
    broken.chmod(0o755)
    monkeypatch.setattr(shutil, "which", lambda name: str(broken))
    _assert_numpy_fallback(caplog, "--version")


@needs_compiler
def test_compiler_exits_non_zero(cache, caplog, monkeypatch):
    monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "--no-such-flag-for-sure"))
    _assert_numpy_fallback(caplog, "exited with")
    assert list(cache.iterdir()) == []  # no partial output left behind


@needs_compiler
def test_a_compiler_without_the_avx2_build_still_gets_the_library(
    cache, caplog, monkeypatch
):
    """The CSR kernel's AVX2 variant is the one part of the source a
    toolchain may refuse; the loader then builds the baseline variant alone,
    silently, rather than lose every compiled kernel."""
    genuine, builds = subprocess.run, []

    def run(cmd, **kwargs):
        if "-shared" in cmd:
            builds.append("-DREPRO_BASELINE_ONLY" in cmd)
            if not builds[-1]:
                return subprocess.CompletedProcess(cmd, 1, b"", b"target('avx2')?")
        return genuine(cmd, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert native.load() is not None
        _assert_working_run()
    assert builds == [False, True] and not _warnings(caplog)


@needs_compiler
def test_self_test_mismatch(cache, caplog, monkeypatch):
    """The NumPy kernel is the expected value: patch it to differ in one code."""
    genuine = FusedStepEncoder._quantize_numpy

    def off_by_one(self, plan, shard, keys):
        codes = genuine(self, plan, shard, keys)
        codes[shard.start, 0] ^= 1
        return codes

    monkeypatch.setattr(FusedStepEncoder, "_quantize_numpy", off_by_one)
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert native.load() is None
    assert "self-test disagrees" in native.status()
    (record,) = _warnings(caplog)
    assert "self-test disagrees" in record.getMessage()
    monkeypatch.setattr(FusedStepEncoder, "_quantize_numpy", genuine)
    _assert_working_run()  # on the NumPy tier the loader fell back to


@needs_compiler
def test_a_self_test_that_calls_the_loader_fails_over_instead_of_hanging(
    cache, caplog, monkeypatch
):
    """A kernel call site reachable from the self-test calls ``load()``
    while the build holds the loader's lock: it raises at once, so the
    build ends on the NumPy tier with one WARNING rather than deadlocking."""
    from repro.quant import fused

    genuine = fused.kernels_agree

    def calls_back(lib):
        native.load()
        return genuine(lib)

    monkeypatch.setattr(fused, "kernels_agree", calls_back)
    verdict = []
    worker = threading.Thread(target=lambda: verdict.append(native.load()), daemon=True)
    with caplog.at_level(logging.WARNING, logger="repro"):
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive(), "load() deadlocked on its own self-test"
    assert verdict == [None]
    (record,) = _warnings(caplog)
    assert "re-entered" in record.getMessage() and "re-entered" in native.status()
    assert native._build_thread is None  # the next build starts clean


@needs_compiler
def test_truncated_cached_library(cache, caplog, monkeypatch):
    # Built by another process: truncating a library this process has
    # mapped would fault in the mapping, not in the loader under test.
    assert _python(_LOAD).wait(timeout=300) == 0
    (built,) = cache.iterdir()
    built.write_bytes(built.read_bytes()[:200])
    _assert_numpy_fallback(caplog, "cannot load")
    assert not built.exists()  # removed, so the next process rebuilds it
    monkeypatch.setattr(native, "_tier", None)
    assert native.load() is not None and built.exists()


@needs_compiler
def test_unwritable_cache_falls_to_a_private_temp_dir(
    cache, caplog, monkeypatch, tmp_path
):
    (tmp_path / "xdg").write_text("a file where the cache directory should be")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert native.load() is not None
        _assert_working_run()
    fallback = tmp_path / f"repro-quant-kernels-{os.getuid()}"
    assert str(fallback) in native.status()
    assert fallback.stat().st_mode & 0o777 == 0o700
    (record,) = _warnings(caplog)
    assert str(fallback) in record.getMessage()


@needs_compiler  # without one the loader stops before it looks for a cache
def test_no_usable_cache_directory_at_all(cache, caplog, monkeypatch, tmp_path):
    (tmp_path / "xdg").write_text("not a directory")
    (tmp_path / "tmp").write_text("not a directory either")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    _assert_numpy_fallback(caplog, "no private writable cache directory")


@needs_compiler
def test_cached_library_must_be_private_to_this_user(cache, caplog, monkeypatch):
    assert native.load() is not None
    (built,) = cache.iterdir()
    assert built.stat().st_uid == os.getuid() and not built.stat().st_mode & 0o022
    built.chmod(0o777)  # anyone could have replaced it
    monkeypatch.setattr(native, "_tier", None)
    _assert_numpy_fallback(caplog, "not a private file")


@needs_compiler
def test_someone_elses_cache_directory_is_not_used(cache, monkeypatch):
    assert native.load() is not None
    monkeypatch.setattr(os, "getuid", lambda uid=os.getuid(): uid + 1)
    assert not native._private(cache)


@needs_compiler
def test_the_key_covers_source_flags_and_compiler(cache, monkeypatch):
    assert native.load() is not None
    monkeypatch.setattr(native, "_tier", None)
    monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-DREPRO_OTHER_BUILD"))
    assert native.load() is not None
    assert len(list(cache.glob("kernels-*.so"))) == 2


@needs_compiler
def test_concurrent_builders_both_load_a_complete_file(cache):
    """Two processes racing on an empty cache: each compiles to a temporary
    name and renames into place, so both load a whole library."""
    racers = [_python(_LOAD) for _ in range(2)]
    assert [p.wait(timeout=300) for p in racers] == [0, 0]
    (built,) = cache.iterdir()  # one library, no temporary files left
    assert built.name.startswith("kernels-") and built.suffix == ".so"


@needs_compiler
def test_a_later_process_loads_the_build_it_finds(cache):
    """What a transport worker started by ``spawn`` does (a forked one
    inherits the loaded library): no compile, the parent's file."""
    assert native.load() is not None
    (built,) = cache.iterdir()
    stamp = built.stat().st_mtime_ns
    child = _python(_STATUS, stdout=subprocess.PIPE, text=True)
    out, _ = child.communicate(timeout=300)
    assert out.strip() == native.status() and str(built) in out
    assert built.stat().st_mtime_ns == stamp and len(list(cache.iterdir())) == 1


def test_the_c_source_ships_as_package_data():
    source = resources.files("repro.quant").joinpath("_kernels.c")
    text = source.read_text()
    entries = ("repro_philox_lanes", "repro_quantize_pack_pairs", "repro_decode_rows",
               "repro_add_rows", "repro_csr_rows", "repro_post_forward",
               "repro_post_backward")  # fmt: skip
    for entry in entries:
        assert entry in text
    for gone in ("repro_quantize_pairs", "repro_decode_groups"):
        assert gone not in text
    assert len(text.splitlines()) <= 600
    loader = Path(native.__file__).read_text()
    assert len(loader.splitlines()) <= 170
    assert "-ffast-math" not in native.FLAGS and "-march=native" not in native.FLAGS
    assert "-ffp-contract=off" in native.FLAGS
    pyproject = Path(__file__).parents[2] / "pyproject.toml"
    assert 'repro = ["quant/*.c"]' in pyproject.read_text()
