"""The split-phase pipelined executor: the paper's overlap, executed for real.

Running each layer step as post → own-column half → finalize → halo-column
half is a column split of the same math, so under the same seed it must
equal the reference trainer (``tests/reference/oracle.py``) bitwise —
losses, reduced gradients, wire bytes, bit-widths, accuracy — on every
transport backend, at any worker count, under any job-retirement order and
at any stack depth.  The pairwise cover of *all* axes is
``test_oracle_matrix.py``; the grids here enumerate the transport × stack
depth × policy sub-matrix in full, each case one ``matrix.check`` call
against the session's cached oracle runs.  On top of the numerics, each overlapped
epoch must emit a measured per-stage timeline whose transport-recorded
interleave shows the halo traffic really was in flight during the central
windows.
"""

import numpy as np
import pytest
from reference.oracle import operators

from repro.cli import main
from repro.cluster.cluster import Cluster
from repro.cluster.exchange import ExactHaloExchange
from repro.comm.transport import Transport, host_spare_cores
from repro.core.config import RunConfig
from repro.core.trainer import OVERLAP_SYSTEMS, train
from repro.graph.partition.api import partition_graph

#: The layer-shape axis: on the 48-feature / 24-class ``tiny_dataset``
#: hidden 8 makes GCN's first layer transform first, hidden 64 its output
#: layer — every grid below runs both operand orders at every position of
#: the pipeline.
HIDDEN_SHAPES = [8, 64]
POLICIES = ["exact", "quantized", "stale", "broadcast"]

#: The shape most accounting tests run: GCN, 4 partitions, 4-bit messages.
QUANTIZED = dict(policy="quantized", model="gcn", hidden=8, parts=4)


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("exchange_name", POLICIES)
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_overlap_matches_oracle(matrix, model_kind, parts, exchange_name, hidden):
    matrix.check(
        policy=exchange_name, model=model_kind, hidden=hidden, parts=parts,
        overlap=True, transport="sync",
    )


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("exchange_name", POLICIES)
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_async_transport_bitwise_identical_to_sync(
    matrix, model_kind, parts, exchange_name, hidden
):
    """The worker-backed transport is an execution shape, not a numerics
    change (same reduction order: the workers produce, the main thread
    alone collects and accumulates in device order)."""
    matrix.check(
        policy=exchange_name, model=model_kind, hidden=hidden, parts=parts,
        overlap=True, transport="worker",
    )


@pytest.mark.parametrize("exchange_name", POLICIES)
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_keyed_rng_order_independent_across_worker_counts(
    matrix, exchange_name, workers, hidden
):
    """Determinism is a property of data coordinates, not of which thread
    encoded a block or when it retired: any worker count ≡ the oracle."""
    matrix.check(
        policy=exchange_name, model="gcn", hidden=hidden, parts=4,
        overlap=True, transport=f"worker:{workers}",
    )


def test_cluster_transport_spec_selection(tiny_dataset, tiny_book):
    """transport= takes a spec string, resolved to the transport's worker
    count once, at open."""
    with Cluster(
        tiny_dataset, tiny_book, overlap=True, transport="worker:2"
    ) as cluster:
        assert type(cluster.transport) is Transport
        assert cluster.transport.workers == 2
        assert cluster.transport.is_async is True
        assert cluster.transport.transport_health()["kind"] == "worker"
    with Cluster(tiny_dataset, tiny_book, transport="sync") as cluster:
        assert type(cluster.transport) is Transport
        assert cluster.transport.workers == 0
        assert cluster.transport.is_async is False
        assert cluster.transport.transport_health()["kind"] == "sync"
    # Workers degrade to inline for non-overlapped runs (there is no
    # central window to hide work under).
    with Cluster(tiny_dataset, tiny_book, transport="worker:2") as cluster:
        assert cluster.transport.workers == 0
    # "auto" resolves to a concrete worker count at cluster open.
    with Cluster(
        tiny_dataset, tiny_book, overlap=True, transport="auto"
    ) as cluster:
        assert cluster.transport.workers == host_spare_cores()
    # The three read-only mirrors are gone: read cluster.transport.
    for mirror in ("transport_spec", "async_transport", "transport_workers"):
        assert not hasattr(cluster, mirror)
    with pytest.raises(ValueError, match="unknown transport backend"):
        Cluster(tiny_dataset, tiny_book, transport="bogus:2")


def test_legacy_transport_knobs_are_gone(tiny_dataset, tiny_book, capsys):
    """Removed means rejected: the spec string is the only transport
    spelling, and the execution-shape knobs that selected deleted paths
    raise instead of being silently ignored."""
    for knob in (
        "async_transport", "transport_workers",
        "fused_exchange", "fused_compute", "rng_mode", "timeline_history",
    ):
        with pytest.raises(TypeError):
            RunConfig(**{knob: 1})
    for removed in ("bogus", "process:2", "auto:2"):
        with pytest.raises(ValueError, match="expected one of: auto, sync, worker"):
            RunConfig(transport=removed)
    with pytest.raises(TypeError):
        RunConfig(pipeline_depth=2)
    for knob in ("fused_compute", "timeline_keep", "pipeline_depth"):
        with pytest.raises(TypeError):
            Cluster(tiny_dataset, tiny_book, **{knob: 1})
    for argv in (
        ["train", "--rng-mode", "keyed"], ["train", "--no-fused-compute"], ["bench"],
        ["train", "--pipeline-depth", "2"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(["info"]) == 0
    assert "rng_mode=" not in capsys.readouterr().out


@pytest.mark.parametrize("exchange_name", ["exact", "quantized"])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_keyed_rng_survives_shuffled_job_retirement(matrix, exchange_name, hidden):
    """Running every deferred job (encode shards and decode followups) in
    reverse submission order must leave the training trajectory
    bitwise-unchanged — and still record a fully hidden interleave."""
    record = matrix.check(
        policy=exchange_name, model="gcn", hidden=hidden, parts=4,
        overlap=True, transport="shuffled",
    )
    assert record.hidden_byte_fraction() == 1.0


@pytest.mark.parametrize("exchange_name", POLICIES)
@pytest.mark.parametrize("spec", ["sync", "worker:4"])
@pytest.mark.parametrize("hidden_layers", [1, 2])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_stack_depth_matrix_matches_oracle(
    matrix, exchange_name, spec, hidden_layers, hidden
):
    """The pipeline one or two hidden layers deep x {sync, worker:4} x
    every policy.  With one hidden layer the first layer's marginal
    sub-step feeds the output layer's post directly; with two, a hidden
    layer's full post -> central -> finalize -> marginal sits between
    them.  Either way the interleave stays fully hidden."""
    record = matrix.check(
        policy=exchange_name, model="gcn", hidden=hidden, parts=4,
        hidden_layers=hidden_layers, overlap=True, transport=spec,
    )
    if record.timeline_summary.total_bytes > 0:
        assert record.hidden_byte_fraction() == 1.0


def test_shuffled_retirement_across_tags():
    """Two tags in flight, the later tag retiring first: joining and
    collecting ``fwd/L1`` before ``fwd/L0`` must leave both tags' mailbox
    contents and byte accounting intact (per-tag state is independent)."""
    t = Transport(2, workers=2)
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


def test_worker_decode_keeps_overlap_accounting_at_many_workers(matrix):
    """With worker-side decode the step's mailboxes are drained on the
    pool; the window opened before the post must still classify every
    byte as hidden."""
    _, record = matrix.production(**QUANTIZED, transport="worker:4")
    assert record.hidden_byte_fraction() == 1.0
    summary = record.timeline_summary
    assert summary.overlapped_bytes == summary.total_bytes > 0


def test_cluster_is_a_context_manager(tiny_dataset, tiny_book):
    """`with Cluster(...)` closes the transport on exit — even when the
    body raises — and close stays idempotent afterwards."""
    with Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker:2",
    ) as cluster:
        assert cluster.transport.workers == 2
        cluster.train_epoch(ExactHaloExchange(), 0)
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
    auto = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker",
    )
    assert auto.transport.workers == max(1, host_spare_cores())
    pinned = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker:3",
    )
    assert pinned.transport.workers == 3
    sync = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="sync",
    )
    assert sync.transport.workers == 0
    with pytest.raises(ValueError, match="workers must be >= 1"):
        Cluster(
            tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
            transport="worker:0",
        )
    for c in (auto, pinned, sync):
        c.close()


def test_async_transport_keeps_overlap_accounting(matrix):
    """Worker posts land inside the open central windows, so the measured
    interleave still reports every halo byte as hidden, and the summary
    carries the join-wait the worker exposed (>= 0)."""
    _, record = matrix.production(**QUANTIZED, transport="worker")
    assert record.hidden_byte_fraction() == 1.0
    summary = record.timeline_summary
    assert summary.steps == 2 * 3
    assert summary.overlapped_bytes == summary.total_bytes > 0
    assert summary.worker_wait_s >= 0.0


def test_async_transport_auto_defaults(tiny_dataset, tiny_book):
    auto = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
    )
    assert auto.transport.is_async == (host_spare_cores() >= 1)
    forced = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=True,
        transport="worker",
    )
    assert forced.transport.is_async
    # No pipeline -> no window to hide under -> always inline.
    off = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, seed=0, overlap=False,
        transport="worker",
    )
    assert not off.transport.is_async
    for c in (auto, forced, off):
        c.close()


@pytest.mark.parametrize("parts", [1, 4])
def test_overlap_emits_measured_timelines(matrix, parts, monkeypatch):
    """Every training step's ``forward_layer`` / ``backward_layer`` returns
    its measured timeline; the epoch record keeps only their sum."""
    steps = []
    record_step = Cluster._record_step

    def spy(self, record, exchange, timeline):
        steps.append(timeline)
        record_step(self, record, exchange, timeline)

    monkeypatch.setattr(Cluster, "_record_step", spy)
    _, record = matrix.production(policy="exact", model="gcn", hidden=8, parts=parts)
    # One timeline per (layer, direction), in execution order.
    last = steps[-6:]
    assert [(t.layer, t.phase) for t in last] == [
        (0, "fwd"), (1, "fwd"), (2, "fwd"), (2, "bwd"), (1, "bwd"), (0, "bwd"),
    ]
    for t in last:
        for stage in (t.quantize_s, t.central_s, t.dequantize_s, t.marginal_s):
            assert stage >= 0.0
        assert t.overlapped_bytes <= t.total_bytes
    summary = record.timeline_summary
    assert summary.steps == 2 * 3
    assert summary.central_s == sum(t.central_s for t in last)
    assert summary.total_bytes == sum(t.total_bytes for t in last)
    if parts == 1:
        # Empty marginal graph: the comm stage is a no-op.
        assert all(t.total_bytes == 0 for t in last)
        assert record.hidden_byte_fraction() == 0.0
    else:
        # Every halo byte was posted before its central window began.
        assert all(t.overlapped_bytes == t.total_bytes for t in last)
        assert record.hidden_byte_fraction() == 1.0


def test_non_overlap_record_has_no_timelines(matrix):
    _, record = matrix.production(
        policy="exact", model="gcn", hidden=8, parts=4, overlap=False
    )
    assert record.timeline_summary.steps == 0
    assert record.hidden_byte_fraction() == 0.0


@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_trainer_defaults_overlap_for_adaqp_variants(
    matrix, tiny_dataset, tiny_book, hidden
):
    cfg = RunConfig(epochs=6, hidden_dim=hidden, eval_every=2, reassign_period=4)
    pipe = train("adaqp-fixed", tiny_dataset, tiny_book, "2M-2D", cfg)
    serial = train("adaqp-no-overlap", tiny_dataset, tiny_book, "2M-2D", cfg)
    # The run-level summary covers every executed step of the pipeline;
    # a system that does not overlap runs none.
    assert pipe.timeline_summary.steps == 6 * 6  # epochs x (layers x 2)
    assert pipe.timeline_summary.total_bytes > 0
    assert serial.timeline_summary.steps == 0
    # The split is the same math: an overlapped cluster equals a plain one,
    # records included.
    what = dict(policy="quantized", model="gcn", hidden=hidden, parts=4)
    run, record = matrix.production(**what, overlap=True)
    plain, plain_record = matrix.production(**what, overlap=False)
    assert run.mismatches(plain) == []
    assert matrix.same_records(record, plain_record)  # identical schedules
    assert record.timeline_summary.steps > 0
    assert plain_record.timeline_summary.steps == 0


def test_overlap_system_set_matches_schedules():
    # The executed pipeline mirrors the simulated one: exactly the systems
    # timed by schedule_adaqp run split-phase.
    assert OVERLAP_SYSTEMS == {
        "adaqp", "adaqp-uniform", "adaqp-fixed", "vanilla-overlap",
    }


@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_overlap_buffers_survive_interleaved_evals(tiny_dataset, tiny_book, hidden):
    """Eval passes run the non-overlapped forward on the same engine
    buffers (a transform-first layer's ``T`` and its in-place ``P·T``
    output rows included); the sharing must be invisible to training
    trajectories."""

    def losses(with_eval):
        cluster = Cluster(
            tiny_dataset, tiny_book, hidden_dim=hidden, num_layers=2, dropout=0.5,
            seed=0, overlap=True,
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
# Split operators: P = [P_own | P_halo] and its transpose's row ranges
# ----------------------------------------------------------------------
def _split_engine(residency, tiny_dataset, huge_store):
    """The devices and engine of a 3-layer cluster, in RAM or from the
    store (one quartet per device either way), and each device's whole
    operator as the reference trainer builds it."""
    if residency == "ram":
        book = partition_graph(tiny_dataset.graph, 3, method="metis", seed=0)
        dataset = tiny_dataset
    else:
        dataset, book = huge_store.dataset(), huge_store.book()
    with Cluster(dataset, book, hidden_dim=8, seed=0) as cluster:
        return cluster.devices, cluster.engine, operators(dataset, book, "gcn")


def _row_halves(m, n_own):
    """Per row of one device's whole operator ``m``: its entries split at
    the owned columns, as ``(own columns, halo columns, own data, halo
    data)`` in the halves' column spaces."""
    for i in range(n_own):
        cols = m.indices[m.indptr[i] : m.indptr[i + 1]]
        data = m.data[m.indptr[i] : m.indptr[i + 1]]
        owned = cols < n_own
        yield cols[owned], cols[~owned] - n_own, data[owned], data[~owned]


@pytest.mark.parametrize("residency", ["ram", "store"])
def test_split_operators_partition_every_row(residency, tiny_dataset, huge_store):
    """``own`` and ``halo`` partition every row's entries, each half in
    stored order, and central rows have empty halo halves — what makes the
    central window legal before the halos arrive.  The engine loops over
    the devices' own quartets, one per device."""
    devices, engine, whole = _split_engine(residency, tiny_dataset, huge_store)
    assert len(engine._blocks) == len(devices)
    for (ops, own, halo), dev, m in zip(engine._blocks, devices, whole):
        assert ops is dev.ops
        assert ops.own.shape[0] == ops.halo.shape[0] == own.stop - own.start
        assert ops.halo.shape[1] == halo.stop - halo.start
        for row, want in enumerate(_row_halves(m, dev.part.n_owned)):
            got = []
            for half in (ops.own, ops.halo):
                lo, hi = half.indptr[row], half.indptr[row + 1]
                got.append((half.indices[lo:hi], half.data[lo:hi]))
            (own_cols, own_data), (halo_cols, halo_data) = got
            assert own_cols.tolist() == want[0].tolist()
            assert halo_cols.tolist() == want[1].tolist()
            assert own_data.tobytes() == want[2].tobytes()
            assert halo_data.tobytes() == want[3].tobytes()
        assert not np.diff(ops.halo.indptr)[dev.part.central_mask].any()
        assert ops.own.nnz + ops.halo.nnz == ops.nnz == m.nnz


@pytest.mark.parametrize("residency", ["ram", "store"])
def test_every_operator_fits_the_compiled_spmv(residency, tiny_dataset, huge_store):
    """Every matrix the engine holds is float32 with int32 ``indptr`` /
    ``indices`` and each row's columns ascending — the operands
    ``repro_csr_rows`` takes.  A split that widened the indices would pass
    every bitwise test (scipy sums in the same order) and show only as a
    slowdown.  The engine resolves each of them for ``_spmv`` once, at
    construction: the same matrix, with the compiled kernel's addresses."""
    _, engine, _ = _split_engine(residency, tiny_dataset, huge_store)
    for ops, csr in zip(engine._ops, engine._csr, strict=True):
        for name in ("own", "halo", "own_t", "halo_t"):
            m = getattr(ops, name)
            assert m.dtype == np.float32
            assert m.indptr.dtype == m.indices.dtype == np.int32
            assert m.has_sorted_indices
            assert csr[name].matrix is m
            assert csr[name].pointers == tuple(
                a.ctypes.data for a in (m.indptr, m.indices, m.data)
            )


class _CountingLibrary:
    """The compiled library with its CSR product counted."""

    def __init__(self, lib) -> None:
        self.lib, self.csr_rows = lib, 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def repro_csr_rows(self, *args):
        self.csr_rows += 1
        return self.lib.repro_csr_rows(*args)


@pytest.mark.parametrize("residency", ["ram", "store"])
def test_every_engine_spmv_runs_the_compiled_kernel(
    residency, tiny_dataset, huge_store, compiled_kernels, kernel_tier, monkeypatch
):
    """Where the compiled tier is loaded, every ``_spmv`` call of a
    training epoch and an evaluation runs ``repro_csr_rows``."""
    from repro.cluster import compute

    if residency == "ram":
        dataset, book = tiny_dataset, partition_graph(tiny_dataset.graph, 3, seed=0)
    else:
        dataset, book = huge_store.dataset(), huge_store.book()
    calls = []
    dispatch = compute._spmv

    def spy(*args, **kwargs):
        calls.append(1)
        return dispatch(*args, **kwargs)

    monkeypatch.setattr(compute, "_spmv", spy)
    lib = _CountingLibrary(compiled_kernels)
    with kernel_tier(lib), Cluster(dataset, book, hidden_dim=8, seed=0) as cluster:
        cluster.train_epoch(ExactHaloExchange(), 0)
        cluster.evaluate()
    assert lib.csr_rows == len(calls) > 0


@pytest.mark.parametrize("residency", ["ram", "store"])
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_own_then_halo_is_the_one_pass_product(
    residency, compiled, tiny_dataset, huge_store, compiled_kernels, kernel_tier
):
    """``own`` overwriting then ``halo`` accumulating equals the one-pass
    product of ``[own | halo]`` bitwise on both kernel tiers, and ``own_t``
    / ``halo_t`` are the owned and halo row ranges of its transpose."""
    import scipy.sparse as sp

    from repro.cluster.compute import _spmv

    _, engine, _ = _split_engine(residency, tiny_dataset, huge_store)
    gen = np.random.default_rng(0)
    with kernel_tier(compiled_kernels if compiled else None):
        for ops, _, _ in engine._blocks:
            full = sp.hstack([ops.own, ops.halo], format="csr")
            full_t = full.T.tocsr()
            full_t.sort_indices()
            n_own = ops.own.shape[1]
            for got, want in ((ops.own_t, full_t[:n_own]), (ops.halo_t, full_t[n_own:])):
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert got.data.tobytes() == want.data.tobytes()
            for width in (6, 40):  # both accumulator forms of the compiled kernel
                x = gen.normal(size=(full.shape[1], width)).astype(np.float32)
                one_pass = np.full((full.shape[0], width), np.nan, dtype=np.float32)
                _spmv(full, x, one_pass)
                split = np.full_like(one_pass, np.nan)
                _spmv(ops.own, x[:n_own], split)
                _spmv(ops.halo, x[n_own:], split, accumulate=True)
                assert split.tobytes() == one_pass.tobytes()
