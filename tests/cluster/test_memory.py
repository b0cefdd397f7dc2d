"""Memory/size estimator (the footnote-1 argument)."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import ExactHaloExchange
from repro.cluster.memory import (
    _csr_bytes,
    _operator_bytes,
    _quant_scratch_bytes,
    _quant_stage_bytes,
    _stage_bytes,
    estimate_memory,
    estimate_peak_resident,
    host_memory,
)
from repro.graph.partition.api import partition_graph
from repro.quant import fused, native
from repro.quant.stochastic import KeyedRounding


def _kernel_scratch(cluster):
    """The quantization kernel's chunk scratch, counted independently of the
    estimator: 16 bytes per element of one chunk on the NumPy tier, nothing
    where the compiled kernels are loaded."""
    if native.load() is not None:
        return 0
    send_rows = sum(dev.part.n_halo for dev in cluster.devices)
    return min(fused._QUANT_CHUNK_ROWS, send_rows) * max(cluster.dims[:-1]) * 16


def _quant_stage(cluster, steps_widths):
    """The exchange's plan staging, counted independently of the estimator
    at the widest width (8 bits: the wire is one byte per element): 5 B
    per element on the NumPy tier (rows + codes), plus 8 B per row of zero
    point and scale on the compiled tier."""
    send_rows = sum(dev.part.n_halo for dev in cluster.devices)
    per_row = 0 if native.load() is None else 8 * len(steps_widths)
    return send_rows * (5 * sum(steps_widths) + per_row)


@pytest.fixture(scope="module")
def cluster(tiny_dataset):
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    return Cluster(tiny_dataset, book, model_kind="gcn", hidden_dim=32, num_layers=3,
                   dropout=0.0, seed=0)


def test_one_footprint_per_device(cluster):
    footprints = estimate_memory(cluster)
    assert len(footprints) == 4
    assert [fp.device for fp in footprints] == [0, 1, 2, 3]


def test_feature_bytes_exact(cluster):
    for fp, dev in zip(estimate_memory(cluster), cluster.devices):
        assert fp.feature_bytes == dev.features.nbytes


def test_param_and_grad_bytes_match_model(cluster):
    for fp, dev in zip(estimate_memory(cluster), cluster.devices):
        assert fp.model_param_bytes == dev.model.num_parameters() * 4
        assert fp.model_grad_bytes == fp.model_param_bytes


def test_messages_dwarf_gradients(cluster):
    """The paper's footnote-1 shape at our scale."""
    for fp in estimate_memory(cluster):
        assert fp.message_bytes > 2 * fp.model_grad_bytes


def test_total_is_sum_of_components(cluster):
    fp = estimate_memory(cluster)[0]
    assert fp.total_bytes == (
        fp.feature_bytes + fp.activation_bytes + fp.halo_buffer_bytes
        + fp.model_param_bytes + fp.model_grad_bytes
        + fp.decode_workspace_bytes
    )


def test_decode_workspace_is_one_per_receiver(cluster):
    """One halo-row workspace per device: one exchange step is in flight."""
    max_width = max(cluster.dims[:-1])
    for fp, dev in zip(estimate_memory(cluster), cluster.devices):
        assert fp.decode_workspace_bytes == dev.part.n_halo * max_width * 4


def test_stacked_buffers_counted_for_fused_engine(cluster):
    """The fused engine preallocates; resident counts its stacked rows."""
    for fp in estimate_memory(cluster):
        assert fp.stacked_buffer_bytes > 0
        assert not fp.streaming
        assert fp.memmap_window_bytes == 0
        # In-RAM fused mode: features alongside their stacked layer-0 copy.
        assert fp.resident_bytes == (
            fp.model_param_bytes + fp.model_grad_bytes
            + fp.decode_workspace_bytes
            + fp.feature_bytes + fp.stacked_buffer_bytes
        )


def _engine_buffer_bytes(engine):
    """Bytes of every stacked buffer ``FusedClusterCompute.__init__`` holds."""
    lists = [
        engine._x, engine._dx, engine._z, engine._dz, engine._t, engine._dt,
        engine._x_hat, engine._inv_std, engine._relu_mask, engine._drop_mask,
        [engine.logits, engine._d_logits, engine._x0_halo],
        getattr(engine, "_neigh_out", []), getattr(engine, "_d_own", []),
    ]
    return sum(buf.nbytes for bufs in lists for buf in bufs if buf is not None)


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("hidden", [8, 64], ids=["transform-l0", "aggregate-l0"])
def test_stacked_estimate_is_the_engines_allocation(tiny_dataset, model_kind, hidden):
    """Both operand orders: a transform-first layer holds T/dT over owned +
    halo rows at its output width, an aggregate-first one z/dz over owned
    rows at its input width — the estimate follows the engine exactly."""
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    with Cluster(tiny_dataset, book, model_kind=model_kind, hidden_dim=hidden,
                 num_layers=3, dropout=0.0, seed=0) as c:
        estimated = sum(fp.stacked_buffer_bytes for fp in estimate_memory(c))
        assert estimated == _engine_buffer_bytes(c._compute_engine())


@pytest.mark.parametrize("hidden", [16, 32], ids=["transform-l0", "aggregate-l0"])
def test_streaming_estimate_follows_operand_order(huge_store, hidden):
    """Streaming: same identity, and the feature-width ``stream_z0``
    scratch is charged only when layer 0 still aggregates first; on the
    synchronous transport one memmap window is resident, not a pair."""
    with Cluster(huge_store.dataset(), huge_store.book(), model_kind="gcn",
                 hidden_dim=hidden, num_layers=2, dropout=0.0, seed=0) as c:
        fps = estimate_memory(c)
        engine = c._compute_engine()
        assert sum(fp.stacked_buffer_bytes for fp in fps) == _engine_buffer_bytes(engine)
        quant_stage = _quant_stage(c, [*c.dims[:-1], *c.dims[1:-1]])
        scratch = 0
        if not engine._transform_first[0]:
            scratch = max(dev.n_owned for dev in c.devices) * c.dims[0] * 4
        assert not c.transport.is_async
        assert estimate_peak_resident(c) == (
            sum(fp.resident_bytes - fp.memmap_window_bytes for fp in fps)
            + max(fp.memmap_window_bytes for fp in fps) + quant_stage + scratch
            + _kernel_scratch(c)
        )
        assert _operator_bytes(c) == 0  # the operator blocks are in the windows
        assert (scratch == 0) == (hidden == 16)
        # ... and the engine really allocates it on that branch only.
        c.train_epoch(ExactHaloExchange(), 0)
        allocated = any(key[0] == "stream_z0" for key in engine._scratch_bufs)
        assert allocated == (scratch > 0)


def test_estimate_peak_resident_sums_devices(cluster):
    fps = estimate_memory(cluster)
    quant_stage = _quant_stage(cluster, 2 * cluster.dims[:-1])
    assert estimate_peak_resident(cluster) == (
        sum(fp.resident_bytes for fp in fps) + quant_stage + _kernel_scratch(cluster)
        + _operator_bytes(cluster)
    )


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "split-phase"])
def test_operator_estimate_is_what_the_engine_holds(tiny_dataset, overlap):
    """The in-RAM operator term, counted before the engine exists, equals
    ``_csr_bytes`` summed over the operators it then holds: every device's
    aggregation matrix, the block diagonal, its transpose and — split-phase
    — the central/marginal restrictions.  The backward's owned and halo
    halves of the transpose are row ranges of it, not two more copies."""
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    with Cluster(tiny_dataset, book, hidden_dim=16, num_layers=3, dropout=0.0,
                 seed=0, overlap=overlap) as c:  # fmt: skip
        estimate = _operator_bytes(c)
        engine = c._compute_engine()
        held = [dev.agg.matrix for dev in c.devices] + [engine.matrix, engine.matrix_t]
        if overlap:
            plan = engine.overlap_plan()
            operators = [v for v in vars(plan).values() if sp.issparse(v)]
            assert operators == [plan.matrix_central, plan.matrix_marginal]
            held += operators
        assert estimate == sum(_csr_bytes(m) for m in held)
        assert estimate_peak_resident(c) >= estimate


def _widest_step(cluster):
    """The cluster's layer-0 forward step as the exchange plans it: every
    (src, dst) pair's send rows at the feature width, mixed bit-widths."""
    pairs, counts = [], []
    for dev in cluster.devices:
        for dst, rows in sorted(dev.part.send_map.items()):
            pairs.append((dev.rank, dst))
            counts.append(len(rows))
    n, dim = sum(counts), cluster.dims[0]
    gen = np.random.default_rng(0)
    encoder = fused.FusedStepEncoder(KeyedRounding(0))
    plan = encoder.plan_for(
        "fwd0", pairs, np.array(counts), [(0, 0, n)], np.arange(n),
        gen.choice([2, 4, 8], n), dim,
    )
    encoder.gather_step(plan, {0: gen.normal(size=(n, dim)).astype(np.float32)})
    (shard,) = encoder.shards_for(plan, 1)
    keys = encoder.rounding.block_keys("fwd", 0, plan.pair_src, plan.pair_dst)
    return encoder, plan, shard, keys


def _peak_allocated(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chunk_rows", [4096, 64], ids=["one-chunk", "chunked"])
def test_kernel_scratch_estimate_is_the_numpy_kernels_allocation(
    cluster, monkeypatch, kernel_tier, chunk_rows
):
    """NumPy tier: the estimate is what the kernel allocates — the whole
    step when it fits one chunk, one chunk (widened to the longest pair)
    when it does not; its outputs land in the plan's buffers."""
    monkeypatch.setattr(fused, "_QUANT_CHUNK_ROWS", chunk_rows)
    encoder, plan, shard, keys = _widest_step(cluster)

    def unstaged():
        return estimate_peak_resident(cluster) - _quant_stage_bytes(cluster)

    with kernel_tier(None):
        estimate = _quant_scratch_bytes(cluster)
        on_numpy = unstaged()
    with kernel_tier(object()):  # any library: the estimator only asks whether
        assert estimate == on_numpy - unstaged()
    rows = min(max(chunk_rows, int(plan.pair_counts.max())), plan.n_total)
    assert estimate == rows * max(cluster.dims[:-1]) * 16
    encoder._quantize_numpy(plan, shard, keys)  # allocates the plan's codes_buf
    peak = _peak_allocated(lambda: encoder._quantize_numpy(plan, shard, keys))
    # Never below, and within 30 % above: the raw Philox words of the pair
    # being drawn (2 B per element of that pair), the buffered
    # ``take(..., out=)`` of the codes (1 B) and the per-row vectors ride on
    # top of the 16 B — bounded by the chunk, like the term itself.
    assert estimate <= peak <= 1.3 * estimate


def test_kernel_scratch_is_dropped_where_the_compiled_tier_is_loaded(
    cluster, compiled_kernels, kernel_tier
):
    """Compiled tier: the estimate has no scratch term, and the kernel
    allocates none — O(dim) lanes and codes of one row; its outputs land in
    the plan's buffers."""
    lib = compiled_kernels
    encoder, plan, shard, keys = _widest_step(cluster)
    with kernel_tier(lib):
        assert _quant_scratch_bytes(cluster) == 0
    peak = _peak_allocated(
        lambda: encoder._quantize_pack_native(lib, plan, shard, keys)
    )
    assert peak <= 3 * plan.dim + 32 + 4096  # lanes + codes + Python objects
    numpy_peak = _peak_allocated(lambda: encoder._quantize_numpy(plan, shard, keys))
    assert numpy_peak > 50 * peak


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_stage_estimate_is_what_a_plan_holds(cluster, compiled_kernels, kernel_tier,
                                             compiled):  # fmt: skip
    """Each tier against ``tracemalloc``: building and encoding the widest
    step at mixed widths leaves the plan holding the staging term at the
    plan's widths — plus only its int64 index arrays and payload views
    (< 128 B per row, 2 KiB per pair), and on the NumPy tier the wire and
    per-row metadata its 5 B/element term has never counted."""
    with kernel_tier(compiled_kernels if compiled else None):
        tracemalloc.start()
        try:
            encoder, plan, shard, keys = _widest_step(cluster)
            encoder.quantize_pack_step(plan, coords=("fwd", 0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        term = _stage_bytes(plan.n_total, plan.dim, plan.wire.nbytes)
        # The cluster estimate is the same term at 8 bits, over every step.
        assert _quant_stage_bytes(cluster) == _quant_stage(cluster, 2 * cluster.dims[:-1])
    assert (plan.codes_buf is None) == compiled
    uncounted = 0 if compiled else plan.wire.nbytes + 8 * plan.n_total
    index = 128 * plan.n_total + 2048 * len(plan.pairs)
    assert term + uncounted <= held <= term + uncounted + index
    assert plan.wire.nbytes < plan.n_total * plan.dim  # mixed widths: < 1 B/element


def test_host_memory_parses_meminfo(tmp_path):
    p = tmp_path / "meminfo"
    p.write_text("MemTotal:       16384 kB\nMemFree:  4096 kB\n"
                 "MemAvailable:   8192 kB\n")
    hm = host_memory(p)
    assert hm.total_bytes == 16384 * 1024
    assert hm.available_bytes == 8192 * 1024


def test_host_memory_none_when_unreadable(tmp_path):
    assert host_memory(tmp_path / "missing") is None
    partial = tmp_path / "partial"
    partial.write_text("MemTotal: 1 kB\n")
    assert host_memory(partial) is None
