"""In-memory transport: routing, byte accounting, and the selection specs."""

import numpy as np
import pytest

from repro.comm.transport import SyncTransport as Transport
from repro.comm.transport import WorkerTransport, host_has_spare_core
from repro.comm.transports import (
    TransportSpec,
    create_transport,
    parse_transport_spec,
    resolve_spec,
)


def test_post_and_collect():
    t = Transport(3)
    t.post(0, 2, "fwd/L0", "payload-a", 100)
    t.post(1, 2, "fwd/L0", "payload-b", 50)
    got = t.collect(2, "fwd/L0")
    assert got == {0: "payload-a", 1: "payload-b"}
    # Mailbox drained.
    assert t.collect(2, "fwd/L0") == {}


def test_tags_namespace_exchanges():
    t = Transport(2)
    t.post(0, 1, "fwd/L0", "a", 10)
    t.post(0, 1, "bwd/L0", "b", 20)
    assert t.collect(1, "fwd/L0") == {0: "a"}
    assert t.collect(1, "bwd/L0") == {0: "b"}


def test_duplicate_post_rejected():
    t = Transport(2)
    t.post(0, 1, "x", "a", 1)
    with pytest.raises(RuntimeError, match="duplicate"):
        t.post(0, 1, "x", "b", 1)


def test_self_message_rejected():
    t = Transport(2)
    with pytest.raises(ValueError, match="themselves"):
        t.post(1, 1, "x", "a", 1)


def test_device_range_checked():
    t = Transport(2)
    with pytest.raises(ValueError, match="out of range"):
        t.post(0, 5, "x", "a", 1)
    with pytest.raises(ValueError):
        t.collect(9, "x")


def test_negative_bytes_rejected():
    t = Transport(2)
    with pytest.raises(ValueError):
        t.post(0, 1, "x", "a", -1)


def test_bytes_matrix_accumulates():
    t = Transport(3)
    t.post(0, 1, "x", "a", 100)
    got = t.collect(1, "x")
    t.post(0, 1, "x", "b", 50)
    t.collect(1, "x")
    m = t.bytes_matrix("x")
    assert m[0, 1] == 150
    assert m.sum() == 150
    assert t.bytes_matrix("unknown").sum() == 0


def test_total_bytes():
    t = Transport(2)
    t.post(0, 1, "a", None, 10)
    t.post(1, 0, "b", None, 5)
    t.collect(1, "a")
    t.collect(0, "b")
    assert t.total_bytes() == 15


def test_reset_accounting_requires_drained():
    t = Transport(2)
    t.post(0, 1, "x", "a", 10)
    with pytest.raises(RuntimeError, match="undelivered"):
        t.reset_accounting()
    t.collect(1, "x")
    t.reset_accounting()
    assert t.total_bytes() == 0


def test_pending_tags():
    t = Transport(2)
    assert t.pending_tags() == []
    t.post(0, 1, "z", "a", 1)
    assert t.pending_tags() == ["z"]
    t.collect(1, "z")
    assert t.pending_tags() == []


def test_invalid_device_count():
    with pytest.raises(ValueError):
        Transport(0)


# ---------------------------------------------------------------------------
# Progress model (the split-phase pipeline's interleave record)
# ---------------------------------------------------------------------------
def test_pending_bytes_track_posts_and_drains():
    t = Transport(3)
    assert t.pending_bytes("s") == 0
    t.post(0, 1, "s", "a", 10)
    t.post_batch(2, "s", [(0, "b", 5), (1, "c", 7)])
    assert t.pending_bytes("s") == 22
    t.collect(1, "s")  # drains 0->1 and 2->1
    assert t.pending_bytes("s") == 5
    t.collect(0, "s")
    assert t.pending_bytes("s") == 0


def test_note_overlap_marks_in_flight_bytes():
    t = Transport(2)
    t.post(0, 1, "s", "a", 10)
    assert t.overlapped_bytes("s") == 0
    assert t.note_overlap("s") == 10
    assert t.overlapped_bytes("s") == 10
    t.collect(1, "s")
    # A window opened after the drain hides nothing.
    assert t.note_overlap("s") == 0
    assert t.overlapped_bytes("s") == 10


def test_note_overlap_accumulates_across_steps():
    t = Transport(2)
    for _ in range(2):
        t.post(0, 1, "s", "a", 4)
        t.note_overlap("s")
        t.collect(1, "s")
    assert t.overlapped_bytes("s") == 8


def test_reset_accounting_clears_progress_model():
    t = Transport(2)
    t.post(0, 1, "s", "a", 10)
    t.note_overlap("s")
    t.collect(1, "s")
    t.reset_accounting()
    assert t.pending_bytes("s") == 0
    assert t.overlapped_bytes("s") == 0


# ---------------------------------------------------------------------------
# Selection specs: auto[:N] | sync | worker[:N]
# ---------------------------------------------------------------------------
def test_spec_parse_and_str_round_trip():
    assert parse_transport_spec("worker:4") == TransportSpec("worker", 4)
    assert parse_transport_spec("worker") == TransportSpec("worker")
    assert parse_transport_spec(" auto ") == TransportSpec("auto")
    assert parse_transport_spec("auto:2") == TransportSpec("auto", 2)
    spec = TransportSpec("worker", 2)
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
    # The process backend is gone, and nothing stands in for it: naming it
    # fails at parse with the backends that exist.
    for removed in ("process", "process:2"):
        with pytest.raises(ValueError, match="'process'") as err:
            parse_transport_spec(removed)
        assert "auto, sync, worker" in str(err.value)


def test_resolve_spec_auto_and_degrade_semantics():
    # auto: worker iff the run overlaps AND the host has a spare core.
    expected = "worker" if host_has_spare_core() else "sync"
    assert resolve_spec("auto").backend == expected
    assert resolve_spec("auto", overlap=False) == TransportSpec("sync")
    # The worker backend only pays off inside the overlap window:
    # non-overlapped runs degrade to sync.
    assert resolve_spec("worker:4", overlap=False) == TransportSpec("sync")
    assert resolve_spec("worker:4") == TransportSpec("worker", 4)
    # Pinned counts survive resolution; defaults come from spare cores.
    assert resolve_spec("worker:3") == TransportSpec("worker", 3)
    assert (resolve_spec("worker").workers or 0) >= 1


def test_create_transport_refuses_unresolved_auto():
    with pytest.raises(ValueError, match="resolve 'auto'"):
        create_transport("auto", 2)
    assert type(create_transport("sync", 3)) is Transport
    t = create_transport("worker:2", 3)
    try:
        assert isinstance(t, WorkerTransport)
        assert t.workers == 2 and t.num_devices == 3
    finally:
        t.close()


def test_transport_alias_is_gone():
    # The ``Transport`` alias was removed: the only spellings are
    # SyncTransport / WorkerTransport.
    import repro.comm
    import repro.comm.transport as mod

    for name in ("Transport", "ProcessTransport"):
        with pytest.raises(AttributeError):
            getattr(mod, name)
        with pytest.raises(AttributeError):
            getattr(repro.comm, name)
