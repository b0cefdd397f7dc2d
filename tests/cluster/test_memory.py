"""Memory/size estimator (the footnote-1 argument)."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from step_encoding import quantize_pack

from repro import kernels
from repro.cluster.cluster import Cluster
from repro.cluster.compute import FusedClusterCompute
from repro.cluster.exchange import ExactHaloExchange
from repro.cluster.memory import (
    _csr_bytes,
    _decode_workspace_bytes,
    _model_bytes,
    _operator_bytes,
    _quant_scratch_bytes,
    _quant_stage_bytes,
    _stage_bytes,
    estimate_memory,
    estimate_peak_resident,
    host_memory,
)
from repro.graph.partition.api import partition_graph
from repro.nn.optim import Adam
from repro.quant import fused
from repro.quant.stochastic import KeyedRounding


def _kernel_scratch(cluster):
    """The quantization kernel's chunk scratch, counted independently of the
    estimator: 16 bytes per element of one chunk on the NumPy tier, nothing
    where the compiled kernels are loaded."""
    if kernels.load() is not None:
        return 0
    send_rows = sum(dev.part.n_halo for dev in cluster.devices)
    return min(fused._QUANT_CHUNK_ROWS, send_rows) * max(cluster.dims[:-1]) * 16


def _quant_stage(cluster, steps_widths):
    """The exchange's plan staging, counted independently of the estimator
    at the widest width (8 bits: the wire is one byte per element): 5 B
    per element on the NumPy tier (rows + codes), plus 8 B per row of zero
    point and scale on the compiled tier."""
    send_rows = sum(dev.part.n_halo for dev in cluster.devices)
    per_row = 0 if kernels.load() is None else 8 * len(steps_widths)
    return send_rows * (5 * sum(steps_widths) + per_row)


def _model_resident(cluster):
    """The process's one parameter set, counted off the objects: the
    parameters, their ``grad`` and an Adam's ``m`` and ``v`` slots."""
    opt = Adam(cluster.model.parameters())
    params = sum(p.data.nbytes + p.grad.nbytes for p in opt.params)
    slots = sum(m.nbytes + v.nbytes for m, v in zip(opt._m, opt._v))
    return params + slots


def _quartet(ops):
    """A device's four operators, counted off the matrices."""
    return sum(_csr_bytes(m) for m in (ops.own, ops.halo, ops.own_t, ops.halo_t))


def _decode_workspaces(cluster):
    """One halo-row workspace per receiving device at the widest width."""
    max_width = max(cluster.dims[:-1])
    return sum(dev.part.n_halo * max_width * 4 for dev in cluster.devices)


def _accumulator_bytes(engine):
    """The engine's reduced-form gradient accumulators (``_acc``)."""
    return sum(acc.nbytes for acc in engine._acc)


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
    """Per device, the paper's per-GPU replica: a full parameter set and
    its gradient."""
    for fp in estimate_memory(cluster):
        assert fp.model_param_bytes == cluster.model.num_parameters() * 4
        assert fp.model_grad_bytes == fp.model_param_bytes


def test_messages_dwarf_gradients(cluster):
    """The paper's footnote-1 shape at our scale."""
    for fp in estimate_memory(cluster):
        assert fp.message_bytes > 2 * fp.model_grad_bytes


def test_footprint_is_the_devices_rows(cluster):
    """Footnote 1's counts: a device's owned rows at the feature width, at
    every layer's output width, and its halo rows at every input width."""
    dims = cluster.dims
    for fp, dev in zip(estimate_memory(cluster), cluster.devices, strict=True):
        assert fp.activation_bytes == dev.n_owned * sum(dims[1:]) * 4
        assert fp.halo_buffer_bytes == dev.part.n_halo * sum(dims[:-1]) * 4
        assert fp.message_bytes == fp.halo_buffer_bytes


def test_decode_workspace_is_one_per_receiver(cluster):
    """One halo-row workspace per device: one exchange step is in flight."""
    assert _decode_workspace_bytes(cluster) == _decode_workspaces(cluster)


def test_stacked_buffers_counted_for_fused_engine(cluster):
    """The engine exists with its cluster and preallocates; the estimate
    counts what it holds, the features once: in RAM every device's features
    are a view of the engine's layer-0 buffer, not a second array."""
    engine = cluster.engine
    assert engine.nbytes >= engine._x[0].nbytes > 0
    for dev in cluster.devices:
        assert dev.features.base is engine._x[0]
    rest = estimate_peak_resident(cluster) - engine.nbytes
    assert rest == (
        _operator_bytes(cluster) + _model_bytes(cluster)
        + _decode_workspace_bytes(cluster) + _quant_stage_bytes(cluster)
        + _quant_scratch_bytes(cluster)
    )


def _engine_buffer_bytes(engine):
    """Bytes of every array ``FusedClusterCompute.__init__`` allocates,
    listed by name."""
    lists = [
        engine._x, engine._dx, engine._z, engine._dz, engine._t, engine._dt,
        engine._x_hat, engine._inv_std, engine._relu_mask, engine._drop_mask,
        [engine.logits, engine._d_logits, engine._x0_halo, engine._stream_z0],
        getattr(engine, "_neigh_out", []), getattr(engine, "_d_own", []),
        engine._norm_partials.values(), engine._acc,
        [engine.own_off, engine.halo_off],
    ]
    return sum(buf.nbytes for bufs in lists for buf in bufs if buf is not None)


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("hidden", [8, 64], ids=["transform-l0", "aggregate-l0"])
def test_stacked_estimate_is_the_engines_allocation(tiny_dataset, model_kind, hidden):
    """Both operand orders: a transform-first layer holds T/dT over owned +
    halo rows at its output width, an aggregate-first one z/dz over owned
    rows at its input width — ``nbytes`` is every array the engine holds,
    by name, and the estimate reads it."""
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    with Cluster(tiny_dataset, book, model_kind=model_kind, hidden_dim=hidden,
                 num_layers=3, dropout=0.0, seed=0) as c:
        engine = c.engine
        assert engine.nbytes == _engine_buffer_bytes(engine)
        widths = {c.dims[1], c.dims[2]}
        assert set(engine._norm_partials) == widths
        assert engine._stream_z0 is None
        assert estimate_peak_resident(c) - engine.nbytes == (
            _operator_bytes(c) + _model_resident(c) + _decode_workspaces(c)
            + _quant_stage(c, 2 * c.dims[:-1]) + _kernel_scratch(c)
        )


@pytest.mark.parametrize("hidden", [16, 32], ids=["transform-l0", "aggregate-l0"])
def test_streaming_estimate_follows_operand_order(huge_store, hidden):
    """Streaming: the engine allocates the feature-width ``stream_z0``
    block only when layer 0 still aggregates first, at construction; the
    estimate counts it through ``nbytes`` and, on the synchronous
    transport, one memmap window — the widest — not a pair."""
    with Cluster(huge_store.dataset(), huge_store.book(), model_kind="gcn",
                 hidden_dim=hidden, num_layers=2, dropout=0.0, seed=0) as c:
        engine = c.engine
        held = engine.nbytes
        assert held == _engine_buffer_bytes(engine)
        z0 = engine._stream_z0
        assert (z0 is None) == (hidden == 16) == engine._transform_first[0]
        if z0 is not None:
            assert z0.shape == (max(dev.n_owned for dev in c.devices), c.dims[0])
        windows = [
            _quartet(d.ops) + d.features.nbytes + d.labels.nbytes for d in c.devices
        ]
        assert _operator_bytes(c) == max(windows)
        quant_stage = _quant_stage(c, [*c.dims[:-1], *c.dims[1:-1]])
        assert not c.transport.is_async
        assert estimate_peak_resident(c) == (
            held + max(windows) + quant_stage + _decode_workspaces(c)
            + _kernel_scratch(c) + _model_resident(c)
        )
        # ... and an epoch and an evaluation allocate no engine buffer.
        c.train_epoch(ExactHaloExchange(), 0)
        c.evaluate()
        assert engine.nbytes == held


def test_a_materialized_stores_features_are_not_the_engines(huge_store):
    """A materialized store streams through the same engine over RAM copies:
    layer 0 reads each device's own feature array, which ``nbytes`` leaves
    to the device, and the window term counts every device's window — all
    are in RAM — where streaming counts the widest one."""

    def build(materialize):
        return Cluster(huge_store.dataset(materialize=materialize),
                       huge_store.book(), hidden_dim=32, num_layers=2,
                       dropout=0.0, seed=0)  # fmt: skip

    with build(False) as stream:
        streamed = estimate_peak_resident(stream)
    with build(True) as c:
        engine = c.engine
        assert all(f.base is None for f in engine._own_views[0])
        assert engine.nbytes == _engine_buffer_bytes(engine)
        windows = [
            _quartet(d.ops) + d.features.nbytes + d.labels.nbytes for d in c.devices
        ]
        assert len(windows) > 1
        assert _operator_bytes(c) == sum(windows)
        assert estimate_peak_resident(c) == streamed - max(windows) + sum(windows)


def test_estimate_peak_resident_sums_devices(cluster):
    """Every device's buffers, and the one parameter set once — not once
    per device, as when every device held a replica."""
    quant_stage = _quant_stage(cluster, 2 * cluster.dims[:-1])
    quartets = sum(_quartet(dev.ops) for dev in cluster.devices)
    assert estimate_peak_resident(cluster) == (
        _engine_buffer_bytes(cluster.engine) + quartets + _decode_workspaces(cluster)
        + quant_stage + _kernel_scratch(cluster) + _model_resident(cluster)
    )


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "split-phase"])
def test_operator_estimate_is_what_the_engine_holds(tiny_dataset, overlap):
    """The in-RAM operator term equals ``_csr_bytes`` summed over the
    operators the engine holds: one quartet per device — the own- and
    halo-column halves and their transposes — and no other matrix, whether
    or not the run overlaps."""
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    with Cluster(tiny_dataset, book, hidden_dim=16, num_layers=3, dropout=0.0,
                 seed=0, overlap=overlap) as c:  # fmt: skip
        held = []
        for dev, ops in zip(c.devices, c.engine._ops, strict=True):
            assert ops is dev.ops
            quartet = [ops.own, ops.halo, ops.own_t, ops.halo_t]
            assert [v for v in vars(ops).values() if sp.issparse(v)] == quartet
            assert not any(sp.issparse(v) for v in vars(dev).values())
            held += quartet
        assert _operator_bytes(c) == sum(_csr_bytes(m) for m in held)
        assert estimate_peak_resident(c) >= _operator_bytes(c) + c.engine.nbytes


def test_estimate_counts_the_engines_gradient_accumulators(cluster):
    """The engine's float64 accumulators, one per parameter (2·P·4 B), are
    counted in its ``nbytes``; the parameter-set term holds the float32
    arrays only."""
    engine = cluster.engine
    assert all(acc.dtype == np.float64 for acc in engine._acc)
    assert _accumulator_bytes(engine) == 2 * cluster.model.num_parameters() * 4
    without = _engine_buffer_bytes(engine) - _accumulator_bytes(engine)
    assert engine.nbytes - without == _accumulator_bytes(engine)
    assert _model_bytes(cluster) == _model_resident(cluster)


@pytest.mark.parametrize("shape", ["array", "per-layer", "view"])
def test_a_new_engine_buffer_raises_the_estimate_by_its_bytes(
    tiny_dataset, monkeypatch, shape
):
    """A buffer the engine adds is counted with no edit here: the estimate
    reads the engine's arrays, it does not restate them — also when the
    engine holds it only as views (a reshaped block)."""
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)

    def estimate():
        with Cluster(tiny_dataset, book, hidden_dim=16, num_layers=3, seed=0) as c:
            return estimate_peak_resident(c)

    before = estimate()
    extra = np.zeros((7, 5), dtype=np.float32)
    init = FusedClusterCompute.__init__

    def with_buffer(self, *args, **kwargs):
        init(self, *args, **kwargs)
        buf = extra.copy()
        self._added = {
            "array": buf,
            "per-layer": [None, buf, buf[1:]],
            "view": [buf.reshape(5, 7), buf.reshape(35)[3:]],
        }[shape]

    monkeypatch.setattr(FusedClusterCompute, "__init__", with_buffer)
    assert estimate() == before + extra.nbytes


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
            quantize_pack(encoder, plan, coords=("fwd", 0))
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
