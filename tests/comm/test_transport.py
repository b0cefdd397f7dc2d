"""The in-memory transport: routing, byte accounting, deferred jobs, and
the ``auto | sync | worker[:N]`` spec.

One class runs deferred jobs inline (``workers=0``) or on a pool of
threads.  The shared contract — mailboxes, source-ordered collection,
duplicate rejection, byte and overlap accounting, joins, the stall
deadline (on a pool ``close()`` must wake the stalled job), ``close()``
— runs at every worker count in ``{0, 1, 2}``; what only a pool can do
(jobs off the calling thread, several jobs of one tag in flight,
followups deferred by running jobs, concurrent posts) runs at ``{1, 2}``.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm.faults import FaultPlan
from repro.comm.transport import (
    Transport,
    TransportError,
    detected_cores,
    host_spare_cores,
    transport_workers,
)


def _factory(request):
    made: list[Transport] = []

    def make(num_devices: int) -> Transport:
        t = Transport(num_devices, workers=request.param)
        made.append(t)
        return t

    yield make
    for t in made:
        t.close()


@pytest.fixture(params=[0, 1, 2])
def make(request):
    """``make(num_devices)``: a transport at each worker count (closed
    after the test)."""
    yield from _factory(request)


@pytest.fixture(params=[1, 2])
def make_pool(request):
    """``make_pool(num_devices)``: a transport with a worker pool."""
    yield from _factory(request)


# ---------------------------------------------------------------------------
# Mailboxes
# ---------------------------------------------------------------------------
def test_post_and_collect(make):
    t = make(3)
    t.post(0, 2, "fwd/L0", "payload-a", 100)
    t.post(1, 2, "fwd/L0", "payload-b", 50)
    got = t.collect(2, "fwd/L0")
    assert got == {0: "payload-a", 1: "payload-b"}
    # Mailbox drained.
    assert t.collect(2, "fwd/L0") == {}


def test_tags_namespace_exchanges(make):
    t = make(2)
    t.post(0, 1, "fwd/L0", "a", 10)
    t.post(0, 1, "bwd/L0", "b", 20)
    assert t.collect(1, "fwd/L0") == {0: "a"}
    assert t.collect(1, "bwd/L0") == {0: "b"}


def test_duplicate_post_rejected(make):
    t = make(2)
    t.post(0, 1, "x", "a", 1)
    with pytest.raises(RuntimeError, match="duplicate"):
        t.post(0, 1, "x", "b", 1)


def test_self_message_rejected(make):
    t = make(2)
    with pytest.raises(ValueError, match="themselves"):
        t.post(1, 1, "x", "a", 1)


def test_device_range_checked(make):
    t = make(2)
    with pytest.raises(ValueError, match="out of range"):
        t.post(0, 5, "x", "a", 1)
    with pytest.raises(ValueError):
        t.collect(9, "x")


def test_negative_bytes_rejected(make):
    t = make(2)
    with pytest.raises(ValueError):
        t.post(0, 1, "x", "a", -1)


def test_collect_sorts_mailboxes_by_source(make):
    """Concurrent workers retire posts in arbitrary order; receivers
    accumulate floats in mailbox iteration order, so collect must hand
    back sources ascending regardless of arrival order."""
    t = make(4)
    for src in (2, 0, 3):
        t.post(src, 1, "s", f"p{src}", 1)
    assert list(t.collect(1, "s")) == [0, 2, 3]


def test_worker_posts_are_bitwise_payload_identical(make):
    """Envelope payloads routed through a deferred job are the same
    objects the job posted — no serialization, no copies, no reordering."""
    t = make(3)
    arrays = [np.arange(6, dtype=np.float32) + i for i in range(2)]

    def job():
        t.post(0, 2, "s", arrays[0], arrays[0].nbytes)
        t.post(1, 2, "s", arrays[1], arrays[1].nbytes)

    t.defer("s", job)
    got = t.collect(2, "s")
    assert list(got) == [0, 1]  # collection order == post order
    assert got[0] is arrays[0] and got[1] is arrays[1]


def test_invalid_device_count(make):
    with pytest.raises(ValueError):
        make(0)


# ---------------------------------------------------------------------------
# Byte accounting and the progress model (the split-phase pipeline's
# interleave record)
# ---------------------------------------------------------------------------
def test_bytes_matrix_accumulates(make):
    t = make(3)
    t.post(0, 1, "x", "a", 100)
    t.collect(1, "x")
    t.post(0, 1, "x", "b", 50)
    t.collect(1, "x")
    m = t.bytes_matrix("x")
    assert m[0, 1] == 150
    assert m.sum() == 150
    assert t.bytes_matrix("unknown").sum() == 0


def test_total_bytes(make):
    t = make(2)
    t.post(0, 1, "a", None, 10)
    t.post(1, 0, "b", None, 5)
    t.collect(1, "a")
    t.collect(0, "b")
    assert t.total_bytes() == 15


def test_reset_accounting_requires_drained(make):
    t = make(2)
    t.post(0, 1, "x", "a", 10)
    with pytest.raises(RuntimeError, match="undelivered"):
        t.reset_accounting()
    t.collect(1, "x")
    t.reset_accounting()
    assert t.total_bytes() == 0


def test_reset_accounting_joins_outstanding_jobs(make):
    t = make(2)
    t.defer("s", lambda: t.post(0, 1, "s", "x", 5))
    # The job posts an envelope nobody collected: reset must join first,
    # then refuse.
    with pytest.raises(RuntimeError, match="undelivered"):
        t.reset_accounting()
    t.collect(1, "s")
    t.reset_accounting()
    assert t.total_bytes() == 0


def test_pending_tags(make):
    t = make(2)
    assert t.pending_tags() == []
    t.post(0, 1, "z", "a", 1)
    assert t.pending_tags() == ["z"]
    t.collect(1, "z")
    assert t.pending_tags() == []


def test_pending_bytes_track_posts_and_drains(make):
    t = make(3)
    assert t.pending_bytes("s") == 0
    t.post(0, 1, "s", "a", 10)
    t.post_batch(2, "s", [(0, "b", 5), (1, "c", 7)])
    assert t.pending_bytes("s") == 22
    t.collect(1, "s")  # drains 0->1 and 2->1
    assert t.pending_bytes("s") == 5
    t.collect(0, "s")
    assert t.pending_bytes("s") == 0


def test_note_overlap_marks_in_flight_bytes(make):
    t = make(2)
    t.post(0, 1, "s", "a", 10)
    assert t.overlapped_bytes("s") == 0
    assert t.note_overlap("s") == 10
    assert t.overlapped_bytes("s") == 10
    t.collect(1, "s")
    # A window opened after the drain hides nothing.
    assert t.note_overlap("s") == 0
    assert t.overlapped_bytes("s") == 10


def test_note_overlap_accumulates_across_steps(make):
    t = make(2)
    for _ in range(2):
        t.post(0, 1, "s", "a", 4)
        t.note_overlap("s")
        t.collect(1, "s")
    assert t.overlapped_bytes("s") == 8


def test_overlap_window_is_per_tag(make):
    t = make(2)
    t.post(0, 1, "s", "a", 10)
    assert t.note_overlap("s") == 10
    # Post while the window is open (what a pool worker would do).
    t.post_batch(0, "s2", [(1, "b", 5)])
    assert t.overlapped_bytes("s2") == 0  # different tag, no window
    t.collect(1, "s")
    t.collect(1, "s2")
    assert t.overlapped_bytes("s") == 10


def test_reset_accounting_clears_progress_model(make):
    t = make(2)
    t.post(0, 1, "s", "a", 10)
    t.note_overlap("s")
    t.collect(1, "s")
    t.reset_accounting()
    assert t.pending_bytes("s") == 0
    assert t.overlapped_bytes("s") == 0


# ---------------------------------------------------------------------------
# Deferred jobs, joins, deadlines and close (every worker count)
# ---------------------------------------------------------------------------
def test_defer_runs_job_and_complete_joins(make):
    t = make(2)
    ran = threading.Event()

    def job():
        t.post(0, 1, "s", "payload", 10)
        ran.set()

    t.defer("s", job)
    wait = t.complete("s")
    assert ran.is_set()
    assert wait >= 0.0
    assert t.pending_bytes("s") == 10
    assert t.collect(1, "s") == {0: "payload"}


def test_complete_without_job_is_noop(make):
    assert make(2).complete("nothing") == 0.0


def test_job_exceptions_reraise(make):
    """Inline the job's error leaves ``defer``; on a pool, ``complete``."""
    t = make(2)

    def bad():
        raise RuntimeError("kaboom")

    with pytest.raises(RuntimeError, match="kaboom"):
        t.defer("s", bad)
        t.complete("s")


def test_collect_auto_joins_outstanding_job(make):
    t = make(2)
    release = threading.Event()

    def job():
        release.wait(timeout=5.0)
        t.post(0, 1, "s", "late", 7)

    threading.Timer(0.02, release.set).start()
    t.defer("s", job)
    # Collect must block on the job instead of returning an empty mailbox.
    assert t.collect(1, "s") == {0: "late"}


@pytest.mark.parametrize("workers", [0, 1])
def test_jobs_retire_in_submission_order(workers):
    """Inline, and on a one-thread pool, jobs run in submission order."""
    t = Transport(4, workers=workers)
    order: list[str] = []
    for tag in ("a", "b", "c"):
        t.defer(tag, lambda tag=tag: order.append(tag))
    for tag in ("a", "b", "c"):
        t.complete(tag)
    assert order == ["a", "b", "c"]
    t.close()


def test_stall_past_deadline_raises_typed_error(make):
    """A stalled job fails fast with the deadline error at any worker
    count, and ``close()`` abandons it instead of sleeping it out."""
    t = make(2)
    t.timeout_s = 0.1
    t.fault_plan = FaultPlan.parse(["stall:fwd/L1:delay=30"])
    ran = []
    start = time.perf_counter()
    with pytest.raises(TransportError, match=r"tag 'fwd/L1' missed its 0.1s") as err:
        t.defer("fwd/L1", lambda: ran.append(True))
        t.complete("fwd/L1")
    assert "outstanding" in str(err.value)
    t.close()
    assert time.perf_counter() - start < 5.0
    assert ran == []


def test_close_is_idempotent(make):
    t = make(2)
    t.defer("s", lambda: None)
    t.complete("s")
    t.close()
    t.close()
    # After close the transport refuses new deferred work.
    with pytest.raises(RuntimeError, match="closed"):
        t.defer("s2", lambda: None)


def test_worker_count_validated():
    with pytest.raises(ValueError, match="workers"):
        Transport(2, workers=-1)
    inline = Transport(2)
    assert inline.workers == 0 and not inline.is_async
    assert inline.transport_health()["kind"] == "sync"
    t = Transport(2, workers=3)
    assert t.workers == 3 and t.is_async
    health = t.transport_health()
    assert (health["kind"], health["workers"], health["is_async"]) == ("worker", 3, True)
    t.close()


# ---------------------------------------------------------------------------
# Pool-only behaviour
# ---------------------------------------------------------------------------
def test_jobs_run_off_the_calling_thread(make_pool):
    t = make_pool(2)
    seen: list[str] = []
    t.defer("s", lambda: seen.append(threading.current_thread().name))
    t.complete("s")
    assert len(seen) == 1 and seen[0] != threading.current_thread().name


def test_complete_joins_every_job_under_a_tag(make_pool):
    """A tag may carry several jobs (encode shards + decode followups);
    complete must join them all, not just the first."""
    t = make_pool(2)
    done: list[int] = []
    release = threading.Event()
    t.defer("s", lambda: (release.wait(timeout=5.0), done.append(1)))
    t.defer("s", lambda: done.append(2))
    release.set()
    t.complete("s")
    assert sorted(done) == [1, 2]
    assert t.complete("s") == 0.0  # tag drained


def test_complete_joins_followups_deferred_by_running_jobs(make_pool):
    """The fused engine's last encode shard defers decode jobs under the
    same tag *from inside the pool*; complete must pick those up even
    though they were registered after it started waiting."""
    t = make_pool(2)
    order: list[str] = []

    def encode():
        order.append("encode")
        t.defer("s", lambda: order.append("decode"))

    t.defer("s", encode)
    t.complete("s")
    assert order == ["encode", "decode"]


def test_non_joining_collect_runs_inside_the_job_set(make_pool):
    """A decode job collects its tag with ``join=False``: a joining
    collect would wait on the very job set it runs in."""
    t = make_pool(2)
    got: list[dict] = []

    def encode():
        t.post(0, 1, "s", "x", 3)
        t.defer("s", lambda: got.append(t.collect(1, "s", join=False)))

    t.defer("s", encode)
    t.timeout_s = 5.0
    t.complete("s")
    assert got == [{0: "x"}]
    assert t.pending_bytes("s") == 0


def test_multi_worker_jobs_run_concurrently():
    """At workers=2 two jobs of one tag really overlap: each blocks until
    the other has started, which deadlocks on a single-worker pool."""
    t = Transport(2, workers=2)
    a_started = threading.Event()
    b_started = threading.Event()

    def job_a():
        a_started.set()
        assert b_started.wait(timeout=10.0)

    def job_b():
        b_started.set()
        assert a_started.wait(timeout=10.0)

    t.defer("s", job_a)
    t.defer("s", job_b)
    t.complete("s")
    t.close()


def test_close_after_failed_job_swallows_and_releases(make_pool):
    """The close-after-failed-epoch path: a job that raised must not keep
    the pool alive (leaked worker threads) or re-raise out of close."""
    t = make_pool(2)

    def bad():
        raise RuntimeError("epoch failed mid-flight")

    t.defer("s", bad)
    t.close()  # joins, swallows, shuts the pool down
    t.close()  # and stays idempotent afterwards
    with pytest.raises(RuntimeError, match="closed"):
        t.defer("s2", lambda: None)


def test_posts_landing_in_open_window_count_as_overlapped(make_pool):
    t = make_pool(2)
    release = threading.Event()

    def job():
        release.wait(timeout=5.0)
        t.post(0, 1, "s", "x", 100)

    t.defer("s", job)
    # Window opens before the worker posted anything (the executor's
    # note_overlap right after post_step returns).
    assert t.note_overlap("s") == 0
    release.set()
    t.complete("s")
    assert t.overlapped_bytes("s") == 100
    t.collect(1, "s")
    # Window closed at collect: later posts are not overlapped.
    t.post(0, 1, "s", "y", 50)
    assert t.overlapped_bytes("s") == 100
    t.collect(1, "s")


def test_accounting_never_corrupts_across_threads(make_pool):
    """Stress: many concurrent posters/finalizers on distinct tags.

    Each poster thread defers a job posting a full fan-out, opens an
    overlap window, then finalizes (join + collect all).  Afterwards the
    per-tag byte matrices, overlapped counters and pending counters must
    be exact — no lost updates, no phantom envelopes.
    """
    n = 8
    steps_per_thread = 20
    t = make_pool(n)
    errors: list[BaseException] = []

    def worker(thread_id: int) -> None:
        try:
            for step in range(steps_per_thread):
                tag = f"T{thread_id}/s{step}"
                src = thread_id % n

                def job(tag=tag, src=src):
                    posts = [
                        (dst, f"p{src}->{dst}", 10 + dst)
                        for dst in range(n)
                        if dst != src
                    ]
                    t.post_batch(src, tag, posts)

                t.defer(tag, job)
                t.note_overlap(tag)
                time.sleep(0.0001 * (thread_id % 3))
                t.complete(tag)
                expected = sum(10 + dst for dst in range(n) if dst != src)
                assert t.pending_bytes(tag) == expected
                assert t.overlapped_bytes(tag) == expected
                got = 0
                for dst in range(n):
                    got += len(t.collect(dst, tag))
                assert got == n - 1
                assert t.pending_bytes(tag) == 0
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not errors, errors

    # Global accounting adds up exactly: per thread, per step, one fan-out.
    total = 0
    for thread_id in range(6):
        src = thread_id % n
        per_step = sum(10 + dst for dst in range(n) if dst != src)
        for step in range(steps_per_thread):
            tag = f"T{thread_id}/s{step}"
            m = t.bytes_matrix(tag)
            assert m.sum() == per_step
            assert m[src].sum() == per_step
            total += per_step
    assert t.total_bytes() == total
    assert t.pending_tags() == []
    t.reset_accounting()
    assert t.total_bytes() == 0


# ---------------------------------------------------------------------------
# The spec: auto | sync | worker[:N]
# ---------------------------------------------------------------------------
def test_host_core_helpers_consistent():
    assert detected_cores() >= 1
    assert host_spare_cores() == detected_cores() - 1


def test_spec_parse_and_str_round_trip():
    # Every accepted spelling parses, surrounding whitespace included.
    for spec in ("auto", "sync", "worker", "worker:4"):
        for spelled in (spec, f" {spec} "):
            assert isinstance(transport_workers(spelled, overlap=True), int)
    assert transport_workers(" worker:4 ", overlap=True) == 4
    assert transport_workers(" auto ", overlap=True) == transport_workers("auto", overlap=True)


def test_resolve_spec_auto_and_degrade_semantics():
    spare = host_spare_cores()
    # auto: one worker per spare core iff the run overlaps AND the host
    # has one.
    assert transport_workers("auto", overlap=True) == spare
    assert transport_workers("auto", overlap=False) == 0
    assert transport_workers("sync", overlap=True) == 0
    # Workers only pay off inside the overlap window: non-overlapped runs
    # resolve to inline.
    assert transport_workers("worker:4", overlap=False) == 0
    assert transport_workers("worker", overlap=False) == 0
    # Pinned counts survive resolution; the default comes from spare cores.
    for n in (1, 3, 4, 7):
        assert transport_workers(f"worker:{n}", overlap=True) == n
    assert transport_workers("worker", overlap=True) == max(1, spare)


def test_spec_validation_errors():
    # Validation does not depend on whether the run overlaps.
    for overlap in (True, False):
        with pytest.raises(ValueError, match="unknown transport backend"):
            transport_workers("bogus:2", overlap=overlap)
        with pytest.raises(ValueError, match="no worker count"):
            transport_workers("sync:3", overlap=overlap)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            transport_workers("worker:0", overlap=overlap)
        with pytest.raises(ValueError, match="bad worker count"):
            transport_workers("worker:lots", overlap=overlap)
    with pytest.raises(TypeError):
        transport_workers(4, overlap=True)
    # The process backend is gone, and nothing stands in for it: naming it
    # fails at parse with the spelling typed and the backends that exist.
    for removed in ("process", "process:2"):
        with pytest.raises(ValueError, match="unknown transport backend 'process'") as err:
            transport_workers(removed, overlap=True)
        assert "expected one of: auto, sync, worker[:N]" in str(err.value)
    # ``auto:N`` is gone too: auto picks its own worker count.
    with pytest.raises(ValueError) as err:
        transport_workers("auto:2", overlap=True)
    assert str(err.value) == (
        "the auto transport takes no worker count (expected one of: auto, sync, worker[:N])"
    )


def test_transport_alias_is_gone():
    """One class: the backend ABC, the spec dataclass, its resolver and
    factory, and the process backend are not part of ``repro.comm``."""
    import repro.comm

    assert repro.comm.Transport is Transport
    for name in (
        "TransportBackend",
        "TransportSpec",
        "create_transport",
        "resolve_spec",
        "parse_transport_spec",
        "ProcessTransport",
    ):
        with pytest.raises(AttributeError):
            getattr(repro.comm, name)
