"""End-to-end equivalence: the split-phase pipelined executor is the fused
engine with the paper's overlap executed for real.

The executor's contract (ISSUE 3): under the same seed, running each layer
step as post → central sub-step → finalize → marginal sub-step must be
**bit-identical** to the PR-2 fused path — same losses, reduced gradients,
wire bytes and accuracy — across model kinds, partition counts and every
exchange policy, because the central/marginal split is a row permutation
of the same math.  On top of the numerics, each overlapped epoch must emit
a measured per-stage timeline whose transport-recorded interleave shows
the halo traffic really was in flight during the central windows.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.compute import restrict_rows
from repro.comm.transport import SyncTransport as Transport
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
)
from repro.core.config import RunConfig
from repro.core.trainer import OVERLAP_SYSTEMS, train
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook


#: The layer-shape axis (see tests/cluster/test_fused_compute.py): on the
#: 48-feature / 24-class ``tiny_dataset`` hidden 8 makes GCN's first layer
#: transform first, hidden 64 its output layer — every matrix below runs
#: both operand orders at every position of the pipeline.
HIDDEN_SHAPES = [8, 64]


def _book(dataset, parts):
    if parts == 1:
        return PartitionBook(
            part_of=np.zeros(dataset.num_nodes, dtype=np.int32), num_parts=1
        )
    return partition_graph(dataset.graph, parts, method="metis", seed=0)


def _make_exchange(name, rng_mode="stream"):
    if name == "exact":
        return ExactHaloExchange()
    if name == "stale":
        from repro.baselines.pipegcn import StaleHaloExchange

        return StaleHaloExchange()
    if name == "broadcast":
        from repro.baselines.sancus import BroadcastSkipExchange

        return BroadcastSkipExchange(2)
    from repro.quant.stochastic import KeyedRounding

    rng = KeyedRounding(123) if rng_mode == "keyed" else np.random.default_rng(123)
    return FusedQuantizedHaloExchange(FixedBitProvider(4), rng)


def _run_epochs(
    dataset, book, *, model_kind, overlap, exchange_name, epochs=3,
    transport="sync", pipeline_depth=2, timeline_keep=None,
    rng_mode="stream", transport_cls=None, hidden_dim=8,
):
    cluster = Cluster(
        dataset,
        book,
        model_kind=model_kind,
        hidden_dim=hidden_dim,
        num_layers=3,
        dropout=0.5,
        seed=7,
        fused_compute=True,
        overlap=overlap,
        transport=transport,
        pipeline_depth=pipeline_depth,
        timeline_keep=timeline_keep,
    )
    if transport_cls is not None:
        cluster.transport = transport_cls(cluster.num_devices)
    exchange = _make_exchange(exchange_name, rng_mode)
    losses, grads, wire = [], [], 0
    record = None
    for epoch in range(epochs):
        record = cluster.train_epoch(exchange, epoch)
        losses.append(record.loss)
        grads.append(cluster.devices[0].model.grad_vector().copy())
        wire += record.total_wire_bytes()
    metrics = cluster.evaluate()
    cluster.close()
    return losses, grads, wire, metrics, record


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize(
    "exchange_name", ["exact", "quantized", "stale", "broadcast"]
)
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_overlap_bitwise_identical_to_fused(
    tiny_dataset, model_kind, parts, exchange_name, hidden
):
    book = _book(tiny_dataset, parts)
    pipe = _run_epochs(
        tiny_dataset, book, model_kind=model_kind, overlap=True,
        exchange_name=exchange_name, hidden_dim=hidden,
    )
    fused = _run_epochs(
        tiny_dataset, book, model_kind=model_kind, overlap=False,
        exchange_name=exchange_name, hidden_dim=hidden,
    )
    assert pipe[0] == fused[0], "losses diverged"
    for gp, gf in zip(pipe[1], fused[1]):
        assert np.array_equal(gp, gf), "reduced gradients diverged"
    assert pipe[2] == fused[2], "wire bytes diverged"
    assert pipe[3] == fused[3], "eval metrics diverged"


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize(
    "exchange_name", ["exact", "quantized", "stale", "broadcast"]
)
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_async_transport_bitwise_identical_to_sync(
    tiny_dataset, model_kind, parts, exchange_name, hidden
):
    """ISSUE 4's contract: the worker-backed transport is an execution
    shape, not a numerics change — losses, reduced gradients, wire bytes
    and eval metrics must match the synchronous pipeline bit for bit
    (same reduction order: the worker produces, the main thread alone
    collects and accumulates in device order)."""
    book = _book(tiny_dataset, parts)
    kwargs = dict(
        model_kind=model_kind, overlap=True, exchange_name=exchange_name,
        hidden_dim=hidden,
    )
    asy = _run_epochs(tiny_dataset, book, transport="worker", **kwargs)
    syn = _run_epochs(tiny_dataset, book, transport="sync", **kwargs)
    assert asy[0] == syn[0], "losses diverged"
    for ga, gs in zip(asy[1], syn[1]):
        assert np.array_equal(ga, gs), "reduced gradients diverged"
    assert asy[2] == syn[2], "wire bytes diverged"
    assert asy[3] == syn[3], "eval metrics diverged"


# ----------------------------------------------------------------------
# ISSUE 5: keyed rounding RNG — determinism from data coordinates
# ----------------------------------------------------------------------
class _ShuffledTransport(Transport):
    """A deterministic stand-in for adversarial job scheduling: deferred
    jobs accumulate and run in *reverse submission order* at join time
    (followups deferred by running jobs are picked up too).  Any
    retirement order a real pool could produce is a prefix-respecting
    interleaving of this and submission order, so equality across the two
    extremes is the order-independence property."""

    is_async = True  # engage the sharded encode + worker-decode paths
    workers = 4

    def __init__(self, num_devices):
        super().__init__(num_devices)
        self._queue: dict[str, list] = {}

    def defer(self, tag, job):
        self._queue.setdefault(tag, []).append(job)

    def complete(self, tag):
        while self._queue.get(tag):
            jobs = self._queue.pop(tag)
            for job in reversed(jobs):
                job()
        self._queue.pop(tag, None)
        return 0.0

    def collect(self, dst, tag):
        self.complete(tag)
        return super().collect(dst, tag)

    def reset_accounting(self):
        for tag in list(self._queue):
            self.complete(tag)
        super().reset_accounting()


@pytest.mark.parametrize(
    "exchange_name", ["exact", "quantized", "stale", "broadcast"]
)
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_keyed_rng_order_independent_across_worker_counts(
    tiny_dataset, exchange_name, workers, hidden
):
    """ISSUE 5's acceptance property: with rng_mode="keyed", losses,
    reduced gradients, wire bytes and eval metrics are bitwise-identical
    across worker counts in {sync, worker:1, worker:2, worker:4} for
    every exchange policy — determinism is a property of data
    coordinates, not of which thread encoded a block or when it retired.
    (The synchronous transport is the baseline arm of every comparison.)"""
    book = _book(tiny_dataset, 4)
    kwargs = dict(
        model_kind="gcn", overlap=True, exchange_name=exchange_name,
        rng_mode="keyed", hidden_dim=hidden,
    )
    baseline = _run_epochs(tiny_dataset, book, transport="sync", **kwargs)
    arm = _run_epochs(
        tiny_dataset, book, transport=f"worker:{workers}", **kwargs,
    )
    assert arm[0] == baseline[0], "losses diverged"
    for ga, gb in zip(arm[1], baseline[1]):
        assert np.array_equal(ga, gb), "reduced gradients diverged"
    assert arm[2] == baseline[2], "wire bytes diverged"
    assert arm[3] == baseline[3], "eval metrics diverged"


@pytest.mark.parametrize(
    "exchange_name", ["exact", "quantized", "stale", "broadcast"]
)
@pytest.mark.parametrize("spec", ["process:2", "process:4"])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_keyed_rng_process_transport_matches_sync(
    tiny_dataset, exchange_name, spec, hidden
):
    """ISSUE 6's acceptance property: the process-backed transport — encode
    shards and per-receiver decodes in worker *processes*, payloads over
    shared-memory rings — is bitwise-identical to the synchronous path for
    every exchange policy under rng_mode="keyed", at any process count.
    The keyed RNG is what makes this legal: a worker process reproduces
    its shard from coordinates alone, and collect's sort-by-source anchor
    fixes the reduction order regardless of which process finished first."""
    book = _book(tiny_dataset, 4)
    kwargs = dict(
        model_kind="gcn", overlap=True, exchange_name=exchange_name,
        rng_mode="keyed", hidden_dim=hidden,
    )
    baseline = _run_epochs(tiny_dataset, book, transport="sync", **kwargs)
    arm = _run_epochs(tiny_dataset, book, transport=spec, **kwargs)
    assert arm[0] == baseline[0], "losses diverged"
    for ga, gb in zip(arm[1], baseline[1]):
        assert np.array_equal(ga, gb), "reduced gradients diverged"
    assert arm[2] == baseline[2], "wire bytes diverged"
    assert arm[3] == baseline[3], "eval metrics diverged"


def test_process_transport_keeps_overlap_accounting(tiny_dataset):
    """The process path posts payload views from main-thread callbacks
    inside an open overlap window — every halo byte must still classify
    as hidden, exactly like the worker transport."""
    book = _book(tiny_dataset, 4)
    record = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True,
        exchange_name="quantized", rng_mode="keyed", transport="process:3",
    )[4]
    assert record.hidden_byte_fraction() == 1.0
    assert all(t.overlapped_bytes == t.total_bytes for t in record.timelines)


def test_cluster_transport_spec_selection(tiny_dataset, tiny_book):
    """transport= accepts spec strings and TransportSpec objects and
    resolves "auto" at open."""
    from repro.comm.process import ProcessTransport
    from repro.comm.transports import TransportSpec

    with Cluster(
        tiny_dataset, tiny_book, overlap=True, transport="process:2"
    ) as cluster:
        assert isinstance(cluster.transport, ProcessTransport)
        assert cluster.transport_spec == TransportSpec("process", 2)
        # Derived mirrors stay coherent (perfbench reads them).
        assert cluster.async_transport is True
        assert cluster.transport_workers == 2
    with Cluster(
        tiny_dataset, tiny_book, transport=TransportSpec("sync")
    ) as cluster:
        assert type(cluster.transport) is Transport  # SyncTransport
        assert cluster.transport_workers == 0
    # Async backends degrade to sync for non-overlapped runs (resolve_spec:
    # there is no central window to hide work under).
    with Cluster(tiny_dataset, tiny_book, transport="process:2") as cluster:
        assert cluster.transport_spec == TransportSpec("sync")
    # "auto" resolves to a concrete backend at cluster open.
    with Cluster(
        tiny_dataset, tiny_book, overlap=True, transport="auto"
    ) as cluster:
        assert cluster.transport_spec.backend in ("sync", "worker")
    with pytest.raises(ValueError, match="unknown transport backend"):
        Cluster(tiny_dataset, tiny_book, transport="bogus:2")


def test_legacy_transport_knobs_are_gone():
    """PR 8 removed the pre-PR-6 shims for good: the spec string is the
    only spelling, and the legacy knob pair raises instead of warning."""
    with pytest.raises(TypeError):
        RunConfig(async_transport=True)
    with pytest.raises(TypeError):
        RunConfig(transport_workers=4)
    with pytest.raises(ValueError, match="unknown transport backend"):
        RunConfig(transport="bogus")


@pytest.mark.parametrize("exchange_name", ["exact", "quantized"])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_keyed_rng_survives_shuffled_job_retirement(
    tiny_dataset, exchange_name, hidden
):
    """Shuffled job-retirement order: running every deferred job (encode
    shards and decode followups) in reverse submission order must leave
    the training trajectory bitwise-unchanged under keyed rounding."""
    book = _book(tiny_dataset, 4)
    kwargs = dict(
        model_kind="gcn", overlap=True, exchange_name=exchange_name,
        rng_mode="keyed", hidden_dim=hidden,
    )
    plain = _run_epochs(tiny_dataset, book, transport="sync", **kwargs)
    shuffled = _run_epochs(
        tiny_dataset, book, transport="sync",
        transport_cls=_ShuffledTransport, **kwargs,
    )
    assert shuffled[0] == plain[0], "losses diverged"
    for ga, gb in zip(shuffled[1], plain[1]):
        assert np.array_equal(ga, gb), "reduced gradients diverged"
    assert shuffled[2] == plain[2], "wire bytes diverged"
    assert shuffled[3] == plain[3], "eval metrics diverged"
    # The shuffled transport still records a fully hidden interleave.
    assert shuffled[4].hidden_byte_fraction() == 1.0


# ----------------------------------------------------------------------
# PR 8: two-deep cross-step pipelining
# ----------------------------------------------------------------------
_DEPTH_BASELINES: dict = {}


def _depth_baseline(tiny_dataset, exchange_name, hidden):
    """Depth-1 sync run — the anchor every (depth, backend) arm must hit."""
    key = (exchange_name, hidden)
    if key not in _DEPTH_BASELINES:
        book = _book(tiny_dataset, 4)
        _DEPTH_BASELINES[key] = _run_epochs(
            tiny_dataset, book, model_kind="gcn", overlap=True,
            exchange_name=exchange_name, rng_mode="keyed",
            transport="sync", pipeline_depth=1, hidden_dim=hidden,
        )
    return _DEPTH_BASELINES[key]


@pytest.mark.parametrize(
    "exchange_name", ["exact", "quantized", "stale", "broadcast"]
)
@pytest.mark.parametrize("spec", ["sync", "worker:4", "process:2"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_pipeline_depth_matrix_bitwise_identical(
    tiny_dataset, exchange_name, spec, depth, hidden
):
    """PR 8's acceptance matrix: pipeline_depth in {1, 2} x {sync,
    worker:4, process:2} x every exchange policy is bitwise-identical —
    losses, reduced gradients, wire bytes, eval metrics — to the depth-1
    synchronous pipeline, and the interleave stays fully hidden.  Depth 2
    changes only *when* each step's post is dispatched (inside the
    previous step's marginal window), never what is posted: posts stay
    strictly ordered, so keyed rounding and collect's sort-by-source
    anchor pin the numerics."""
    book = _book(tiny_dataset, 4)
    baseline = _depth_baseline(tiny_dataset, exchange_name, hidden)
    arm = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True,
        exchange_name=exchange_name, rng_mode="keyed",
        transport=spec, pipeline_depth=depth, hidden_dim=hidden,
    )
    assert arm[0] == baseline[0], "losses diverged"
    for ga, gb in zip(arm[1], baseline[1]):
        assert np.array_equal(ga, gb), "reduced gradients diverged"
    assert arm[2] == baseline[2], "wire bytes diverged"
    assert arm[3] == baseline[3], "eval metrics diverged"
    record = arm[4]
    if record.timeline_summary.total_bytes > 0:
        assert record.hidden_byte_fraction() == 1.0


def test_depth2_timelines_report_lookahead(tiny_dataset):
    """Depth-2 epochs stamp every step timeline with the depth, and
    lookahead-posted forward steps carry the dispatch seconds that ran
    inside the previous marginal window (``quantize_s`` equals it)."""
    book = _book(tiny_dataset, 4)
    deep = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True,
        exchange_name="quantized", rng_mode="keyed", pipeline_depth=2,
    )[4]
    assert all(t.pipeline_depth == 2 for t in deep.timelines)
    for t in deep.timelines:
        if t.phase == "fwd" and t.layer > 0:
            # Posted by the previous layer's marginal window.
            assert t.quantize_s == t.lookahead_post_s
        else:
            assert t.lookahead_post_s == 0.0
    shallow = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True,
        exchange_name="quantized", rng_mode="keyed", pipeline_depth=1,
    )[4]
    assert all(t.pipeline_depth == 1 for t in shallow.timelines)
    assert all(t.lookahead_post_s == 0.0 for t in shallow.timelines)


def test_shuffled_retirement_across_tags():
    """Two tags in flight, the later tag retiring first: joining and
    collecting ``fwd/L1`` before ``fwd/L0`` must leave both tags' mailbox
    contents and byte accounting intact (per-tag state is independent)."""
    from repro.comm.transport import WorkerTransport

    t = WorkerTransport(2, workers=2)
    try:
        for layer in (0, 1):
            tag = f"fwd/L{layer}"

            def job(tag=tag, layer=layer):
                t.post(0, 1, tag, f"payload-L{layer}", 100 + layer)

            t.defer(tag, job)
        # Retire the later tag first, then the earlier one.
        assert t.complete("fwd/L1") >= 0.0
        assert t.collect(1, "fwd/L1") == {0: "payload-L1"}
        assert t.complete("fwd/L0") >= 0.0
        assert t.collect(1, "fwd/L0") == {0: "payload-L0"}
    finally:
        t.close()


def test_worker_decode_keeps_overlap_accounting_at_many_workers(tiny_dataset):
    """With worker-side decode the step's mailboxes are drained on the
    pool; the window opened before the post must still classify every
    byte as hidden."""
    book = _book(tiny_dataset, 4)
    record = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True,
        exchange_name="quantized", rng_mode="keyed", transport="worker:4",
    )[4]
    assert record.hidden_byte_fraction() == 1.0
    assert all(t.overlapped_bytes == t.total_bytes for t in record.timelines)


def test_cluster_is_a_context_manager(tiny_dataset, tiny_book):
    """Satellite: `with Cluster(...)` closes the transport on exit — even
    when the body raises — and close stays idempotent afterwards."""
    with Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker:2",
    ) as cluster:
        assert cluster.transport_workers == 2
        cluster.train_epoch(_make_exchange("quantized", "keyed"), 0)
    # Exited: the worker pool is gone and further deferred work refuses.
    with pytest.raises(RuntimeError, match="closed"):
        cluster.transport.defer("t", lambda: None)
    cluster.close()  # double-close is a no-op

    class Boom(Exception):
        pass

    try:
        with Cluster(
            tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
            transport="worker",
        ) as cluster:
            raise Boom
    except Boom:
        pass
    with pytest.raises(RuntimeError, match="closed"):
        cluster.transport.defer("t", lambda: None)


def test_transport_worker_resolution(tiny_dataset, tiny_book):
    from repro.comm.transport import host_spare_cores

    auto = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker",
    )
    assert auto.transport_workers == max(1, host_spare_cores())
    assert auto.transport.workers == auto.transport_workers
    pinned = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker:3",
    )
    assert pinned.transport.workers == 3
    sync = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="sync",
    )
    assert sync.transport_workers == 0 and sync.transport.workers == 0
    with pytest.raises(ValueError, match="workers must be >= 1"):
        Cluster(
            tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
            transport="worker:0",
        )
    for c in (auto, pinned, sync):
        c.close()


def test_async_transport_keeps_overlap_accounting(tiny_dataset):
    """Worker posts land inside the open central windows, so the measured
    interleave still reports every halo byte as hidden, and the timelines
    carry the join-wait the worker exposed (>= 0)."""
    book = _book(tiny_dataset, 4)
    record = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True,
        exchange_name="quantized", transport="worker",
    )[4]
    assert record.hidden_byte_fraction() == 1.0
    assert all(t.overlapped_bytes == t.total_bytes for t in record.timelines)
    assert all(t.worker_wait_s >= 0.0 for t in record.timelines)
    summary = record.timeline_summary
    assert summary.steps == len(record.timelines)
    assert summary.total_bytes == sum(t.total_bytes for t in record.timelines)


def test_async_transport_auto_defaults(tiny_dataset, tiny_book):
    from repro.comm.transport import WorkerTransport, host_has_spare_core

    auto = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
    )
    assert auto.async_transport == host_has_spare_core()
    forced = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker",
    )
    assert forced.async_transport
    assert isinstance(forced.transport, WorkerTransport)
    # No pipeline -> no window to hide under -> always synchronous.
    off = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=False,
        transport="worker",
    )
    assert not off.async_transport
    for c in (auto, forced, off):
        c.close()


def test_timeline_keep_caps_record_but_not_summary(tiny_dataset, tiny_book):
    capped = _run_epochs(
        tiny_dataset, tiny_book, model_kind="gcn", overlap=True,
        exchange_name="exact", epochs=1, timeline_keep=2,
    )[4]
    full = _run_epochs(
        tiny_dataset, tiny_book, model_kind="gcn", overlap=True,
        exchange_name="exact", epochs=1,
    )[4]
    assert len(full.timelines) == 6  # 3 layers x fwd/bwd
    assert len(capped.timelines) == 2  # last-N retained
    assert [(t.layer, t.phase) for t in capped.timelines] == [
        (1, "bwd"), (0, "bwd"),
    ]
    # The summary still covers every step, so the measured overlap
    # accounting is identical to the uncapped record's.
    assert capped.timeline_summary.steps == 6
    assert capped.timeline_summary.total_bytes == full.timeline_summary.total_bytes
    assert capped.hidden_byte_fraction() == full.hidden_byte_fraction()


@pytest.mark.parametrize("parts", [1, 4])
def test_overlap_emits_measured_timelines(tiny_dataset, parts):
    book = _book(tiny_dataset, parts)
    record = _run_epochs(
        tiny_dataset, book, model_kind="gcn", overlap=True, exchange_name="exact"
    )[4]
    # One timeline per (layer, direction), in execution order.
    assert [(t.layer, t.phase) for t in record.timelines] == [
        (0, "fwd"), (1, "fwd"), (2, "fwd"), (2, "bwd"), (1, "bwd"), (0, "bwd"),
    ]
    for t in record.timelines:
        assert t.measured
        assert t.comm_s == 0.0  # in-memory transport: interleave, not wire time
        for stage in (t.quantize_s, t.central_s, t.dequantize_s, t.marginal_s):
            assert stage >= 0.0
        assert t.comp_full_s == pytest.approx(t.central_s + t.marginal_s)
        assert t.overlapped_bytes <= t.total_bytes
    if parts == 1:
        # Empty marginal graph: the comm stage is a no-op.
        assert all(t.total_bytes == 0 for t in record.timelines)
        assert record.hidden_byte_fraction() == 0.0
    else:
        # Every halo byte was posted before its central window began.
        assert all(
            t.overlapped_bytes == t.total_bytes for t in record.timelines
        )
        assert record.hidden_byte_fraction() == 1.0


def test_non_overlap_record_has_no_timelines(tiny_dataset, tiny_book):
    record = _run_epochs(
        tiny_dataset, tiny_book, model_kind="gcn", overlap=False,
        exchange_name="exact", epochs=1,
    )[4]
    assert record.timelines == []
    assert record.hidden_byte_fraction() == 0.0


@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_trainer_defaults_overlap_for_adaqp_variants(tiny_dataset, tiny_book, hidden):
    cfg = RunConfig(epochs=6, hidden_dim=hidden, eval_every=2, reassign_period=4)
    pipe = train("adaqp-fixed", tiny_dataset, tiny_book, "2M-2D", cfg)
    plain = train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        cfg.with_overrides(overlap=False),
    )
    assert pipe.curve_loss == plain.curve_loss
    assert pipe.curve_val == plain.curve_val
    assert pipe.curve_test == plain.curve_test
    assert pipe.wire_bytes_total == plain.wire_bytes_total
    assert pipe.epoch_times == plain.epoch_times  # identical records/schedule


def test_trainer_retains_capped_timelines(tiny_dataset, tiny_book):
    """Multi-epoch runs keep bounded per-step state: the run-level summary
    covers every executed step while only the last
    ``RunConfig.timeline_history`` StepTimeline objects are retained."""
    cfg = RunConfig(
        epochs=6, hidden_dim=8, eval_every=2, reassign_period=4,
        timeline_history=5,
    )
    result = train("adaqp-fixed", tiny_dataset, tiny_book, "2M-2D", cfg)
    assert result.timeline_summary.steps == 6 * 6  # epochs x (layers x 2)
    assert len(result.recent_timelines) == 5
    assert result.timeline_summary.total_bytes > 0

    plain = train("vanilla", tiny_dataset, tiny_book, "2M-2D", cfg)
    assert plain.timeline_summary.steps == 0  # no pipeline, no timelines
    assert plain.recent_timelines == []


def test_overlap_system_set_matches_schedules():
    # The executed pipeline mirrors the simulated one: exactly the systems
    # timed by schedule_adaqp run split-phase.
    assert OVERLAP_SYSTEMS == {
        "adaqp", "adaqp-uniform", "adaqp-fixed", "vanilla-overlap",
    }


def test_overlap_requires_fused_compute(tiny_dataset, tiny_book):
    cluster = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0,
        fused_compute=False, overlap=True,
    )
    assert not cluster.overlap  # degrades to the legacy loop, no pipeline
    record = cluster.train_epoch(ExactHaloExchange(), 0)
    assert record.timelines == []


@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_overlap_buffers_survive_interleaved_evals(tiny_dataset, hidden):
    """Eval passes run the non-overlapped forward on the same engine
    buffers (a transform-first layer's ``T`` and its in-place ``P·T``
    output rows included); the sharing must be invisible to training
    trajectories."""
    book = _book(tiny_dataset, 4)

    def losses(with_eval):
        cluster = Cluster(
            tiny_dataset, book, hidden_dim=hidden, num_layers=2, dropout=0.5, seed=0,
            fused_compute=True, overlap=True,
        )
        exchange = ExactHaloExchange()
        out = []
        for epoch in range(3):
            out.append(cluster.train_epoch(exchange, epoch).loss)
            if with_eval:
                cluster.evaluate()
        return out

    assert losses(True) == losses(False)


# ----------------------------------------------------------------------
# Split operators
# ----------------------------------------------------------------------
def test_restrict_rows_partitions_operator(tiny_dataset):
    book = _book(tiny_dataset, 4)
    cluster = Cluster(
        tiny_dataset, book, hidden_dim=8, num_layers=2, seed=0, overlap=True
    )
    engine = cluster._compute_engine()
    plan = engine.overlap_plan()
    # Central and marginal rows partition the owned region.
    merged = np.sort(np.concatenate([plan.rows_central, plan.rows_marginal]))
    assert np.array_equal(merged, np.arange(engine.total_own))
    # The two halves partition the operator's nonzeros exactly.
    assert (
        plan.matrix_central.nnz + plan.matrix_marginal.nnz == engine.matrix.nnz
    )
    recombined = plan.matrix_central + plan.matrix_marginal
    assert (recombined != engine.matrix).nnz == 0
    # Central rows never touch halo columns (what makes the overlap legal).
    if plan.matrix_central.nnz:
        assert int(plan.matrix_central.indices.max()) < engine.total_own
    # The transpose row blocks partition P^T.
    assert (
        plan.matrix_t_own.shape[0] + plan.matrix_t_halo.shape[0]
        == engine.matrix_t.shape[0]
    )


def test_restrict_rows_rejects_bad_mask():
    import scipy.sparse as sp

    m = sp.csr_matrix(np.eye(3, dtype=np.float32))
    with pytest.raises(ValueError):
        restrict_rows(m, np.ones(2, dtype=bool))


def test_split_spmv_accumulates_to_full_product(tiny_dataset):
    book = _book(tiny_dataset, 3)
    cluster = Cluster(tiny_dataset, book, hidden_dim=8, seed=0, overlap=True)
    engine = cluster._compute_engine()
    plan = engine.overlap_plan()
    gen = np.random.default_rng(0)
    x = gen.normal(size=(engine.matrix.shape[1], 6)).astype(np.float32)
    full = np.asarray(engine.matrix @ x)
    split = np.zeros_like(full)
    from repro.cluster.compute import _spmv_accumulate

    _spmv_accumulate(plan.matrix_central, x, split)
    _spmv_accumulate(plan.matrix_marginal, x, split)
    assert np.array_equal(full, split)
