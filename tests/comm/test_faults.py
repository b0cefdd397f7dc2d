"""Fault injection: spec grammar, wire-path hooks, recovery.

The contract under test: a dropped envelope is regenerated bitwise by
keyed replay under every exchange, a duplicate is rejected, and a stall or
job error fails fast with a typed error — no hangs, no silent corruption.

Layout: unit tests for the grammar and each transport-level injection
point first, then the training-level recovery matrix (each faulted run
compared against its clean twin, inline and on a worker pool, at two
stack depths, and over the streamed partition store).
"""

import time

import numpy as np
import pytest

from repro.comm.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.comm.transport import Transport, TransportError
from repro.core.config import RunConfig
from repro.core.trainer import train


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
def test_fault_spec_parse_full_grammar():
    spec = FaultSpec.parse("drop:fwd/L1@2:src=0,dst=1")
    assert spec == FaultSpec("drop", tag="fwd/L1", epoch=2, src=0, dst=1)
    assert FaultSpec.parse("duplicate:bwd/L0") == FaultSpec(
        "duplicate", tag="bwd/L0"
    )
    assert FaultSpec.parse("stall:fwd/L0@1:delay=0.25") == FaultSpec(
        "stall", tag="fwd/L0", epoch=1, delay_s=0.25
    )
    assert FaultSpec.parse("error") == FaultSpec("error")
    assert FaultSpec.parse("duplicate:fwd/L0:count=3").count == 3
    # The tag wildcard is the default, spelled "*" explicitly too.
    assert FaultSpec.parse("error:*@4").tag == "*"


def test_fault_spec_parse_errors():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec.parse("meteor:fwd/L0")
    with pytest.raises(ValueError, match="unknown fault option"):
        FaultSpec.parse("drop:fwd/L0:sev=9")
    with pytest.raises(ValueError, match="bad fault option"):
        FaultSpec.parse("drop:fwd/L0:src=0:oops")
    with pytest.raises(ValueError, match="count must be >= 1"):
        FaultSpec(kind="drop", count=0)
    with pytest.raises(ValueError, match="empty fault spec"):
        FaultSpec.parse("  ")
    assert FAULT_KINDS == ("drop", "duplicate", "stall", "error")
    # The process backend's kinds went with it: naming one fails at parse
    # with the four that exist, instead of arming a fault nothing fires.
    for removed in ("kill_worker:*", "poison:fwd/L0"):
        with pytest.raises(ValueError, match="unknown fault kind") as err:
            FaultSpec.parse(removed)
        assert "('drop', 'duplicate', 'stall', 'error')" in str(err.value)


def test_fault_plan_take_is_epoch_scoped_and_counted():
    plan = FaultPlan.parse(["drop:fwd/L1@2:count=2", "stall:*"])
    # Wrong epoch: nothing fires.
    plan.set_epoch(0)
    assert plan.take("drop", "fwd/L1") is None
    # Right epoch: fires exactly count times, and the log records it.
    plan.set_epoch(2)
    assert plan.take("drop", "fwd/L1", 0, 1) is not None
    assert plan.take("drop", "fwd/L1") is not None
    assert plan.take("drop", "fwd/L1") is None
    assert plan.log == [(2, "drop", "fwd/L1", 0, 1), (2, "drop", "fwd/L1", None, None)]
    # The wildcard stall matches any tag in any epoch, once.
    assert plan.on_job("bwd/L9") is not None
    assert plan.on_job("bwd/L9") is None
    assert plan.armed() == []


# ----------------------------------------------------------------------
# Transport-level injection points
# ----------------------------------------------------------------------
def test_drop_accounts_bytes_but_never_delivers():
    t = Transport(2)
    t.fault_plan = FaultPlan.parse(["drop:s:src=0,dst=1"])
    t.post(0, 1, "s", "lost", 100)
    t.post(1, 0, "s", "kept", 100)
    # The envelope *left* the sender: wire accounting is identical to a
    # clean run (what keeps faulted runs byte-comparable) ...
    np.testing.assert_array_equal(
        t.bytes_matrix("s"), np.array([[0, 100], [100, 0]])
    )
    # ... but the payload never landed.
    assert t.collect(1, "s") == {}
    assert t.collect(0, "s") == {1: "kept"}
    assert t.fault_stats["dropped"] == 1


def test_duplicate_is_rejected_by_mailbox_idempotency():
    t = Transport(2)
    t.fault_plan = FaultPlan.parse(["duplicate:s"])
    t.post(0, 1, "s", "once", 10)
    assert t.collect(1, "s") == {0: "once"}  # delivered exactly once
    assert t.fault_stats["duplicates_rejected"] == 1


def test_sync_error_fault_raises_typed():
    t = Transport(2)
    t.fault_plan = FaultPlan.parse(["error:s"])
    with pytest.raises(RuntimeError, match="injected transport job fault"):
        t.defer("s", lambda: None)
    # Disarmed after one shot: the next job runs clean.
    ran = []
    t.defer("s", lambda: ran.append(True))
    assert ran == [True]


def test_worker_stall_blows_completion_deadline():
    t = Transport(2, workers=1)
    t.timeout_s = 0.2
    t.fault_plan = FaultPlan.parse(["stall:s:delay=30"])
    ran = []
    try:
        t.defer("s", lambda: ran.append(True))
        with pytest.raises(TransportError, match=r"tag 's' missed its 0.2s"):
            t.complete("s")
    finally:
        start = time.perf_counter()
        t.close()
    # close() wakes the stall and abandons its job instead of joining 30 s.
    assert time.perf_counter() - start < 5.0
    assert ran == []


def test_worker_complete_timeout_names_tag_and_outstanding():
    """Satellite (a): the deadline error is actionable — it names the tag
    and how many jobs were still outstanding."""
    t = Transport(2, workers=1)
    t.timeout_s = 0.1
    t.fault_plan = FaultPlan.parse(["stall:fwd/L1:delay=5"])
    try:
        t.defer("fwd/L1", lambda: None)  # stalls; close() wakes it
        t.defer("fwd/L1", lambda: None)
        with pytest.raises(TransportError) as err:
            t.complete("fwd/L1")
        msg = str(err.value)
        assert "fwd/L1" in msg and "outstanding" in msg
    finally:
        t.close()


def test_worker_no_timeout_waits_for_slow_jobs():
    t = Transport(2, workers=1)  # timeout_s defaults to None
    try:
        done = []
        t.defer("s", lambda: (time.sleep(0.3), done.append(True)))
        t.complete("s")
        assert done == [True]
    finally:
        t.close()


# ----------------------------------------------------------------------
# Training-level recovery matrix: every fault either recovers bitwise or
# fails fast with a typed error.
# ----------------------------------------------------------------------
def _run(tiny_dataset, tiny_book, *, faults=None, system="adaqp-fixed", **overrides):
    cfg = RunConfig(
        epochs=3, hidden_dim=8, eval_every=3, reassign_period=2, **overrides
    )
    plan = None if faults is None else FaultPlan.parse(faults)
    result = train(system, tiny_dataset, tiny_book, "2M-2D", cfg, fault_plan=plan)
    return result, plan


#: Both backends at both stack depths (one or two hidden layers; the
#: scripted faults hit layers 0 and 1, which both stacks have): on
#: ``worker:2`` the dropped or duplicated envelope is posted by an encode
#: shard on the pool, and the receiver's decode runs there too, before
#: finalize's replay audit.
RECOVERY_SHAPES = pytest.mark.parametrize(
    "transport,hidden_layers",
    [(t, h) for t in ("sync", "worker:2") for h in (1, 2)],
)


#: The quantized recovery shapes, plus full precision (its wire is the
#: staged float32 rows, replayed the same way) without and with overlap,
#: and the two baselines: PipeGCN forward and backward, and a SANCUS drop
#: on a broadcast epoch (``sancus_staleness=4`` broadcasts at epoch 0 only).
DROP_CASES = pytest.mark.parametrize(
    "system,transport,hidden_layers,faults",
    [
        pytest.param(
            "adaqp-fixed",
            t,
            h,
            ["drop:fwd/L1@1:src=0,dst=1", "drop:bwd/L0@2"],
            id=f"{t}-{h}",
        )
        for t in ("sync", "worker:2")
        for h in (1, 2)
    ]
    + [
        pytest.param(system, t, 1, ["drop:fwd/L1@1"], id=f"{system}-{t}-1")
        for system, t in (("vanilla", "sync"), ("vanilla-overlap", "worker:2"))
    ]
    + [
        pytest.param(system, t, 1, faults, id=f"{system}-{t}-1")
        for system, faults in (
            ("pipegcn", ["drop:fwd/L1@1", "drop:bwd/L0@2"]),
            ("sancus", ["drop:fwd/L1@0:src=0,dst=1"]),
        )
        for t in ("sync", "worker:2")
    ],
)


@DROP_CASES
def test_drop_recovers_bitwise_via_keyed_replay(
    tiny_dataset, tiny_book, system, transport, hidden_layers, faults
):
    shape = dict(system=system, transport=transport, num_layers=hidden_layers + 1)
    clean, _ = _run(tiny_dataset, tiny_book, **shape)
    faulted, plan = _run(tiny_dataset, tiny_book, faults=faults, **shape)
    assert len(plan.log) == len(faults)  # the scripted faults actually fired
    assert faulted.curve_loss == clean.curve_loss
    assert faulted.wire_bytes_total == clean.wire_bytes_total
    stats = faulted.transport_health["fault_stats"]
    assert stats["replays"] == stats["dropped"] == len(faults)


@RECOVERY_SHAPES
def test_duplicate_is_a_bitwise_noop(
    tiny_dataset, tiny_book, transport, hidden_layers
):
    shape = dict(transport=transport, num_layers=hidden_layers + 1)
    clean, _ = _run(tiny_dataset, tiny_book, **shape)
    faulted, plan = _run(
        tiny_dataset, tiny_book, faults=["duplicate:fwd/L0@1"], **shape
    )
    assert len(plan.log) == 1
    assert faulted.curve_loss == clean.curve_loss
    assert faulted.wire_bytes_total == clean.wire_bytes_total
    assert faulted.transport_health["fault_stats"]["duplicates_rejected"] == 1


@pytest.mark.parametrize("transport", ["sync", "worker:1", "worker:2"])
def test_stall_fails_fast_with_typed_error(tiny_dataset, tiny_book, transport):
    """Inline or on the pool, a stall past the deadline is a typed error
    raised within about ``transport_timeout_s`` — not after the delay."""
    start = time.perf_counter()
    with pytest.raises(TransportError, match="missed its 0.3s completion deadline"):
        _run(
            tiny_dataset,
            tiny_book,
            transport=transport,
            transport_timeout_s=0.3,
            faults=["stall:fwd/L1@1:delay=30"],
        )
    assert time.perf_counter() - start < 10.0


def test_inline_stall_within_deadline_runs_the_job():
    """A stall shorter than the deadline only delays the inline job."""
    t = Transport(2)
    t.timeout_s = 5.0
    t.fault_plan = FaultPlan.parse(["stall:s:delay=0.05"])
    ran = []
    t.defer("s", lambda: ran.append(True))
    assert ran == [True]
    assert t.complete("s") == 0.0


# ----------------------------------------------------------------------
# Faults over the streamed partition store (always inline: a store run
# has no central window for workers to hide under)
# ----------------------------------------------------------------------
def _store_run(huge_store, faults=None, **overrides):
    cfg = RunConfig(
        epochs=3, hidden_dim=16, eval_every=3, reassign_period=2, **overrides
    )
    plan = None if faults is None else FaultPlan.parse(faults)
    result = train(
        "adaqp", huge_store.dataset(), huge_store.book(), "2M-2D", cfg,
        fault_plan=plan,
    )
    return result, plan


@pytest.fixture(scope="module")
def clean_store_run(huge_store):
    return _store_run(huge_store)[0]


@pytest.mark.parametrize(
    "fault,counter",
    [
        ("drop:fwd/L1@1:src=0,dst=1", "dropped"),
        ("drop:bwd/L1@2", "dropped"),
        ("duplicate:fwd/L0@1", "duplicates_rejected"),
    ],
    ids=["drop-fwd", "drop-bwd", "duplicate"],
)
def test_store_fault_recovers_bitwise(huge_store, clean_store_run, fault, counter):
    faulted, plan = _store_run(huge_store, [fault])
    assert len(plan.log) == 1
    assert faulted.transport_health["kind"] == "sync"
    assert faulted.curve_loss == clean_store_run.curve_loss
    assert faulted.wire_bytes_total == clean_store_run.wire_bytes_total
    stats = faulted.transport_health["fault_stats"]
    assert stats[counter] == 1
    if counter == "dropped":
        assert stats["replays"] == 1


def test_store_stall_fails_fast_with_typed_error(huge_store):
    # The delay dwarfs the bound so that build and epoch-0 time inside
    # the timed window cannot blur "raised at the deadline" with "sat out
    # the stall".
    start = time.perf_counter()
    with pytest.raises(TransportError, match="missed its 0.3s completion deadline"):
        _store_run(
            huge_store, ["stall:fwd/L1@1:delay=30"], transport_timeout_s=0.3
        )
    assert time.perf_counter() - start < 10.0
