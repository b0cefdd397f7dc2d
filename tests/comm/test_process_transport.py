"""ProcessTransport: the process pool, shm slabs, wave protocol, lifecycle.

The backend's own contract, below the training-level equivalence matrix in
``tests/cluster/test_overlap_compute.py``: jobs cross the process boundary
as plain picklable data and write results into shared-memory slabs at
prescribed offsets; followups dispatch only after the current wave drains;
worker failures re-raise at ``complete``; ``close`` (and the finalizer
behind it) unlinks every slab even when a worker was killed mid-step.

Also here: the registry/spec surface the redesigned Transport API exposes
(``repro.comm.transports``) and the pickled :class:`ShardDescriptor`'s
bitwise-reproduction contract.
"""

import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.comm.process import ProcessTransport, _attach_segment
from repro.comm.transport import (
    SyncTransport,
    WorkerTransport,
    host_has_spare_core,
)
from repro.comm.transports import (
    TransportSpec,
    available_backends,
    create_transport,
    get_backend,
    parse_transport_spec,
    resolve_spec,
)


# ----------------------------------------------------------------------
# Registry + spec grammar
# ----------------------------------------------------------------------
def test_registry_resolves_builtin_backends():
    assert get_backend("sync") is SyncTransport
    assert get_backend("worker") is WorkerTransport
    assert get_backend("process") is ProcessTransport
    assert available_backends() == ["process", "sync", "worker"]
    with pytest.raises(ValueError, match="unknown transport backend"):
        get_backend("mpi")


def test_spec_parse_and_str_round_trip():
    assert parse_transport_spec("worker:4") == TransportSpec("worker", 4)
    assert parse_transport_spec("process") == TransportSpec("process")
    assert parse_transport_spec(" auto ") == TransportSpec("auto")
    spec = TransportSpec("process", 2)
    assert parse_transport_spec(spec) is spec
    assert str(TransportSpec("worker", 4)) == "worker:4"
    assert str(TransportSpec("sync")) == "sync"
    assert parse_transport_spec(str(spec)) == spec


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown transport backend"):
        parse_transport_spec("bogus:2")
    with pytest.raises(ValueError, match="no worker count"):
        parse_transport_spec("sync:3")
    with pytest.raises(ValueError, match="workers must be >= 1"):
        parse_transport_spec("worker:0")
    with pytest.raises(ValueError, match="bad worker count"):
        parse_transport_spec("worker:lots")
    with pytest.raises(TypeError):
        parse_transport_spec(4)


def test_resolve_spec_auto_and_degrade_semantics():
    # auto: worker iff the run overlaps AND the host has a spare core.
    expected = (
        TransportSpec("worker", max(1, resolve_spec("auto").workers or 1))
        if host_has_spare_core()
        else TransportSpec("sync")
    )
    assert resolve_spec("auto").backend == expected.backend
    assert resolve_spec("auto", overlap=False) == TransportSpec("sync")
    # Async backends only pay off inside the overlap window: non-overlapped
    # runs degrade to sync.
    assert resolve_spec("process:4", overlap=False) == TransportSpec("sync")
    assert resolve_spec("process:4") == TransportSpec("process", 4)
    # Pinned counts survive resolution; defaults come from spare cores.
    assert resolve_spec("worker:3") == TransportSpec("worker", 3)
    assert (resolve_spec("worker").workers or 0) >= 1


def test_create_transport_refuses_unresolved_auto():
    with pytest.raises(ValueError, match="resolve 'auto'"):
        create_transport("auto", 2)
    t = create_transport("process:2", 3)
    try:
        assert isinstance(t, ProcessTransport)
        assert t.workers == 2 and t.num_devices == 3
    finally:
        t.close()


def test_transport_alias_is_gone():
    # PR 8 removed the ``Transport`` DeprecationWarning alias: the only
    # spellings are SyncTransport/WorkerTransport/ProcessTransport.
    import repro.comm
    import repro.comm.transport as mod

    with pytest.raises(AttributeError):
        mod.Transport
    with pytest.raises(AttributeError):
        repro.comm.Transport


# ----------------------------------------------------------------------
# Picklable test jobs (must be module-level: they cross the process
# boundary by reference).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FillJob:
    """Write ``count`` bytes of ``value`` at ``offset``."""

    segment: str
    offset: int
    count: int
    value: int

    def run(self, segments, cache):
        seg = _attach_segment(segments, self.segment)
        buf = np.frombuffer(seg.buf, dtype=np.uint8)
        buf[self.offset : self.offset + self.count] = self.value


@dataclass(frozen=True)
class _ChainJob:
    """Read the byte at ``src`` and write it + 1 at ``dst`` — detects a
    followup dispatched before its wave's writes landed."""

    segment: str
    src: int
    dst: int

    def run(self, segments, cache):
        seg = _attach_segment(segments, self.segment)
        buf = np.frombuffer(seg.buf, dtype=np.uint8)
        buf[self.dst] = buf[self.src] + 1


@dataclass(frozen=True)
class _BoomJob:
    def run(self, segments, cache):
        raise ValueError("boom")


# ----------------------------------------------------------------------
# ProcessTransport behaviour
# ----------------------------------------------------------------------
def test_defer_runs_inline_and_books_like_sync():
    """Closure jobs (exact/stale/broadcast/stream-mode exchanges) never
    cross the process boundary: defer executes inline, so those policies
    ride the bitwise sync path with zero pool traffic."""
    t = ProcessTransport(2, workers=1)
    try:
        t.defer("s", lambda: t.post(0, 1, "s", "payload", 10))
        assert t.complete("s") == 0.0  # nothing waited on
        assert t.pending_bytes("s") == 10
        assert t.collect(1, "s") == {0: "payload"}
        assert not t._procs  # defer alone never spawns the pool
    finally:
        t.close()
    with pytest.raises(RuntimeError, match="closed"):
        t.defer("s", lambda: None)
    with pytest.raises(RuntimeError, match="closed"):
        t.step_buffer("s", 64)


def test_submit_roundtrip_writes_through_shared_memory():
    t = ProcessTransport(2, workers=2)
    try:
        segment, offset, view = t.step_buffer("fwd/L0", 128)
        done = []
        t.submit(
            "fwd/L0",
            _FillJob(segment, offset, 128, 7),
            on_done=lambda: done.append(True),
        )
        waited = t.complete("fwd/L0")
        assert done == [True]  # callback ran on the main thread
        assert waited >= 0.0
        np.testing.assert_array_equal(view[:128], np.full(128, 7, np.uint8))
    finally:
        t.close()


def test_followups_dispatch_after_the_wave_drains():
    t = ProcessTransport(2, workers=2)
    try:
        segment, offset, view = t.step_buffer("s", 64)
        order = []
        for i in range(4):  # a wave of writers racing across 2 workers
            t.submit(
                "s",
                _FillJob(segment, offset, 1, 41),
                on_done=lambda: order.append("encode"),
            )
        # The followup reads what the wave wrote: only legal post-drain.
        t.submit_followup(
            "s",
            _ChainJob(segment, offset, offset + 1),
            on_done=lambda: order.append("decode"),
        )
        t.complete("s")
        assert order == ["encode"] * 4 + ["decode"]
        assert view[1] == 42
    finally:
        t.close()


def test_worker_errors_reraise_at_complete():
    t = ProcessTransport(2, workers=1)
    try:
        t.submit("s", _BoomJob())
        with pytest.raises(RuntimeError, match="boom"):
            t.complete("s")
        # The tag is clean afterwards; the pool is still serviceable.
        segment, offset, view = t.step_buffer("s", 64)
        t.submit("s", _FillJob(segment, offset, 1, 5))
        t.complete("s")
        assert view[0] == 5
    finally:
        t.close()


def test_step_buffer_reuses_and_regrows_slabs():
    t = ProcessTransport(2, workers=1)
    try:
        seg_a, off_a, _ = t.step_buffer("s", 100)
        seg_b, off_b, _ = t.step_buffer("s", 100)
        seg_c, off_c, _ = t.step_buffer("s", 100)
        assert seg_a == seg_b == seg_c  # one ring per tag at a fixed budget
        assert off_a == off_c != off_b  # steady-state alternation (wraps)
        seg_d, _, view = t.step_buffer("s", 5000)  # bit reassignment grows
        assert seg_d != seg_a
        assert view.nbytes >= 5000
    finally:
        t.close()
    # Close unlinked every slab, including the retired generation.
    for name in (seg_a, seg_d):
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_close_is_idempotent_and_unlinks_after_a_kill():
    """ISSUE 6's teardown pin: a worker killed mid-step (the
    KeyboardInterrupt stand-in) must not wedge close() or leak segments."""
    t = ProcessTransport(2, workers=2)
    segment, offset, _ = t.step_buffer("s", 256)
    t.submit("s", _FillJob(segment, offset, 1, 1))
    t.complete("s")
    t._procs[0].kill()
    t.close()
    t.close()  # idempotent
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment)


def test_finalizer_unlinks_when_close_never_runs():
    t = ProcessTransport(2, workers=1)
    segment, _, _ = t.step_buffer("s", 64)
    t._finalizer()  # what interpreter teardown would invoke
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment)
    t.close()  # still safe: the segment list was cleared


# ----------------------------------------------------------------------
# ShardDescriptor: picklable coordinates reproduce payload bytes bitwise
# ----------------------------------------------------------------------
def _tiny_step():
    from repro.quant.fused import FusedStepEncoder
    from repro.quant.stochastic import KeyedRounding

    rounding = KeyedRounding(123)
    encoder = FusedStepEncoder(rounding)
    pairs = [(0, 1), (1, 0), (1, 2)]
    counts = np.array([5, 4, 3], dtype=np.int64)
    # Device 0 sends rows 0..4, device 1 sends rows 0..6 (two pairs).
    device_blocks = [(0, 0, 5), (1, 5, 12)]
    cat_idx = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 6], dtype=np.int64)
    bits_cat = np.array([2, 2, 4, 4, 8, 2, 4, 4, 8, 2, 2, 2], dtype=np.int64)
    plan = encoder.plan_for(
        ("fwd", 1), pairs, counts, device_blocks, cat_idx, bits_cat, 6
    )
    rng = np.random.default_rng(0)
    values = {
        0: rng.standard_normal((5, 6)).astype(np.float32),
        1: rng.standard_normal((7, 6)).astype(np.float32),
    }
    # The shard jobs receive input in cat order (what the exchange gathers
    # into the slab); build the same view here.
    cat_rows = np.empty((12, 6), dtype=np.float32)
    for rank, start, stop in device_blocks:
        np.take(values[rank], cat_idx[start:stop], axis=0, out=cat_rows[start:stop])
    return rounding, encoder, plan, values, cat_rows


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_shard_descriptor_pickles_and_reproduces_bitwise(n_shards):
    from repro.quant.fused import shard_descriptor

    rounding, encoder, plan, values, cat_rows = _tiny_step()
    rounding.set_epoch(3)
    encoder.gather_step(plan, values)
    cache: dict = {}
    for shard in encoder.shards_for(plan, n_shards):
        direct = encoder.quantize_pack_shard(plan, shard, coords=("fwd", 1))
        desc = shard_descriptor(plan, shard, rounding=rounding, phase="fwd", layer=1)
        rebuilt = pickle.loads(pickle.dumps(desc))
        assert rebuilt == desc  # plain-data round trip
        remote = rebuilt.encode(cat_rows[shard.start : shard.stop], cache=cache)
        assert set(remote) == set(direct)
        for pair, payload in direct.items():
            other = remote[pair]
            assert other.wire_bytes == payload.wire_bytes
            for s_a, s_b in zip(payload.streams, other.streams):
                assert bytes(s_a) == bytes(s_b)
            for z_a, z_b in zip(payload.zero_points, other.zero_points):
                np.testing.assert_array_equal(z_a, z_b)
            for c_a, c_b in zip(payload.scales, other.scales):
                np.testing.assert_array_equal(c_a, c_b)


def test_shard_descriptor_cache_tracks_epoch_and_bits():
    from repro.quant.fused import shard_descriptor

    rounding, encoder, plan, values, cat_rows = _tiny_step()
    encoder.gather_step(plan, values)
    (shard,) = encoder.shards_for(plan, 1)
    cache: dict = {}
    outs = []
    for epoch in (0, 1):
        rounding.set_epoch(epoch)
        desc = shard_descriptor(plan, shard, rounding=rounding, phase="fwd", layer=1)
        outs.append(desc.encode(cat_rows, cache=cache))
    assert len(cache) == 1  # same pair span: the rebuilt plan is reused
    # Different epoch, different keyed noise: streams must differ somewhere.
    diff = any(
        bytes(a) != bytes(b)
        for p in outs[0]
        for a, b in zip(outs[0][p].streams, outs[1][p].streams)
    )
    assert diff, "epoch did not reach the keyed noise"


def test_shard_descriptor_requires_keyed_rounding():
    from repro.quant.fused import shard_descriptor

    _, encoder, plan, _, _ = _tiny_step()
    (shard,) = encoder.shards_for(plan, 1)
    with pytest.raises(TypeError, match="KeyedRounding"):
        shard_descriptor(
            plan, shard, rounding=np.random.default_rng(0), phase="fwd", layer=1
        )
