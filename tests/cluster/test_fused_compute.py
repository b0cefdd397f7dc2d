"""The fused compute engine: per-device math, executed cluster-wide.

Under the same seed :class:`FusedClusterCompute` must produce *identical*
losses, model gradients, accuracy and wire bytes to the per-device
reference trainer (``tests/reference/oracle.py``) — across model kinds,
partition counts and exchange policies.  The engine changes execution
shape (per-device split operators, stacked GEMMs, in-place halo writes),
never values.  The grids here run with overlap off (the step's central
window empty); the overlapped row splits' are in
``test_overlap_compute.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.model import aggregate, aggregate_transpose, matrix_t, stack_conv_inputs
from reference.oracle import ExactPolicy, ReferenceTrainer

from repro.cluster.cluster import Cluster
from repro.cluster.compute import FusedClusterCompute, _spmv
from repro.cluster.exchange import ExactHaloExchange
from repro.gnn.coefficients import build_aggregation
from repro.graph.graph import Graph
from repro.graph.io import SplitOperators
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook, build_local_partitions
from repro.nn.losses import softmax_cross_entropy


#: The layer-shape axis.  ``tiny_dataset`` is 48 features → 24 classes, so
#: hidden 8 gives a narrowing first layer (transform-first; the other two
#: aggregate first) and hidden 64 the reverse (only the 64 → 24 output
#: layer transforms first) — both operand orders of the GCN rule run at
#: every layer position.  SAGE always aggregates first.
HIDDEN_SHAPES = [8, 64]


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("exchange_name", ["exact", "quantized"])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_losses_gradients_metrics_identical(
    matrix, model_kind, parts, exchange_name, hidden
):
    matrix.check(
        policy=exchange_name, model=model_kind, hidden=hidden, parts=parts,
        overlap=False,
    )


@pytest.mark.parametrize("exchange_name", ["stale", "broadcast"])
@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_baseline_exchanges_identical(matrix, exchange_name, hidden):
    """The stale/broadcast baselines cache posted payloads across epochs,
    so they are the exchanges most exposed to the engine's buffer reuse —
    their trajectories must match the reference exactly too."""
    matrix.check(
        policy=exchange_name, model="gcn", hidden=hidden, parts=4, overlap=False
    )


@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_default_shape_identical_to_plainest(matrix, hidden):
    """An overlapping system's default shape (split step, ``auto``
    transport) ≡ the plainest one (no split, inline), records included."""
    what = dict(policy="quantized", model="gcn", hidden=hidden, parts=4)
    default, record = matrix.production(**what, overlap=True, transport="auto")
    plain, plain_record = matrix.production(**what, overlap=False, transport="sync")
    assert default.mismatches(plain) == []
    assert matrix.same_records(record, plain_record)  # identical schedules


def test_replicas_stay_identical_under_fused_engine(tiny_dataset):
    """The engine holds no replica: it computes with the cluster's one
    parameter set, which the optimizer's steps move in place, and it writes
    the reduced gradient into that set's ``grad`` once."""
    from repro.nn.optim import Adam

    book = partition_graph(tiny_dataset.graph, 3, method="metis", seed=0)
    cluster = Cluster(
        tiny_dataset, book, hidden_dim=8, num_layers=2, dropout=0.5, seed=0
    )
    opt = Adam(cluster.model.parameters(), lr=0.01)
    exchange = ExactHaloExchange()
    data = [p.data for p in cluster.model.parameters()]
    for epoch in range(3):
        cluster.train_epoch(exchange, epoch)
        opt.step()
    engine = cluster.engine
    assert engine.model is cluster.model
    assert all(p.data is d for p, d in zip(cluster.model.parameters(), data))
    reduced = [acc.astype(np.float32) for acc in engine._acc]
    assert all(np.array_equal(p.grad, r) for p, r in zip(engine._params, reduced))


def test_fused_compute_is_default(tiny_dataset, tiny_book):
    """The one engine, built with its cluster (so the memory estimate can
    count its stacked buffers, the bulk of a cluster's footprint), and the
    one every epoch runs on."""
    with Cluster(tiny_dataset, tiny_book, hidden_dim=8, seed=0) as cluster:
        engine = cluster.engine
        assert isinstance(engine, FusedClusterCompute)
        cluster.train_epoch(ExactHaloExchange(), 0)
        cluster.evaluate()
        assert cluster.engine is engine


@pytest.mark.parametrize("hidden", HIDDEN_SHAPES)
def test_engine_buffers_do_not_leak_between_epochs(tiny_dataset, tiny_book, hidden):
    """Eval passes share the engine's stacked buffers with training; the
    reuse must be invisible — training trajectories with and without
    interleaved evals are identical."""

    def losses(with_eval):
        cluster = Cluster(
            tiny_dataset, tiny_book, hidden_dim=hidden, num_layers=2, dropout=0.0,
            seed=0,
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
# Sparse-product width: a count, not a timing
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sage_store(tmp_path_factory):
    """``huge_store``'s shape with the SAGE operator (stores bake it in)."""
    from repro.graph.generators import HugeGraphConfig
    from repro.graph.io import build_partition_store

    cfg = HugeGraphConfig(
        num_nodes=1500, avg_degree=6.0, num_features=24, num_classes=7,
        num_communities=12, chunk_nodes=512, chunk_edges=4096,
    )
    path = tmp_path_factory.mktemp("sagestore") / "store"
    return build_partition_store(cfg, 4, path, seed=11, agg_kind="sage")


#: The three engine shapes, each with both operand orders at layer 0 and at
#: the output layer: tiny_dataset is 48 → h → h → 24, the stores are
#: 24 → h → h → 7.
ENGINE_SHAPES = [
    ("standard", 8), ("standard", 64),
    ("overlap", 8), ("overlap", 64),
    ("stream", 16), ("stream", 32),
]


def _shape_cluster(shape, model_kind, hidden, tiny_dataset, tiny_book, stores):
    """A 3-layer cluster of one engine shape on the sync transport."""
    if shape == "stream":
        store = stores[model_kind]
        dataset, book = store.dataset(), store.book()
    else:
        dataset, book = tiny_dataset, tiny_book
    cluster = Cluster(
        dataset, book, model_kind=model_kind, hidden_dim=hidden, num_layers=3,
        dropout=0.5, seed=0, overlap=(shape == "overlap"), transport="sync",
    )
    assert cluster.overlap == (shape == "overlap")
    return cluster


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("shape,hidden", ENGINE_SHAPES)
def test_spmv_count_follows_operand_order(
    monkeypatch, tiny_dataset, tiny_book, huge_store, sage_store, model_kind, shape,
    hidden,
):
    """One training epoch's sparse multiply-adds, Σ nnz × width over every
    call of the engine's one spmv dispatch (``compute._spmv``, whichever
    kernel tier runs under it), equal the first-principles count in all three
    engine shapes: ``2·Σ_l nnz·min(d_l, d_{l+1})`` for GCN (each layer
    aggregates at the narrower of its two widths, forward and backward)
    and ``2·Σ_l nnz·d_l`` for SAGE (always the input width).  This is what
    keeps a later refactor from silently widening a product again."""
    from repro.cluster import compute

    stores = {"gcn": huge_store, "sage": sage_store}
    cluster = _shape_cluster(shape, model_kind, hidden, tiny_dataset, tiny_book, stores)
    nnz = sum(dev.ops.nnz for dev in cluster.devices)

    counted = []
    dispatch = compute._spmv

    def spy(matrix, x, out, **kwargs):
        counted.append(matrix.nnz * x.shape[1])
        return dispatch(matrix, x, out, **kwargs)

    monkeypatch.setattr(compute, "_spmv", spy)
    cluster.train_epoch(ExactHaloExchange(), 0)
    cluster.close()

    dims = cluster.dims
    if model_kind == "gcn":
        widths = [min(a, b) for a, b in zip(dims, dims[1:])]
    else:
        widths = dims[:-1]
    assert sum(counted) == 2 * nnz * sum(widths)


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("residency,hidden", [
    ("ram", 8), ("ram", 64), ("store", 16), ("store", 32),
])  # fmt: skip
def test_overlap_executes_the_same_products(
    monkeypatch, tiny_dataset, tiny_book, huge_store, sage_store, model_kind,
    residency, hidden,
):
    """``overlap`` opens the accounting window and changes no operation:
    one training epoch calls the engine's spmv with the same operators
    (shape, nnz) in the same order, overwriting or accumulating alike, with
    the window open and shut, in RAM and from a store."""
    from repro.cluster import compute

    inputs = (tiny_dataset, tiny_book, {"gcn": huge_store, "sage": sage_store})
    shape = "standard" if residency == "ram" else "stream"
    dispatch = compute._spmv

    def products(overlap):
        calls = []

        def spy(matrix, x, out, *, accumulate=False):
            calls.append((matrix.shape, matrix.nnz, accumulate))
            return dispatch(matrix, x, out, accumulate=accumulate)

        cluster = _shape_cluster(shape, model_kind, hidden, *inputs)
        # Set after open: a store cluster refuses overlap for its transport
        # and RSS, but the engine's step must not depend on the flag.
        cluster.overlap = overlap
        monkeypatch.setattr(compute, "_spmv", spy)
        with cluster:
            cluster.train_epoch(ExactHaloExchange(), 0)
        monkeypatch.setattr(compute, "_spmv", dispatch)
        return calls

    serial = products(False)
    assert serial and products(True) == serial


@pytest.mark.parametrize("model_kind", ["gcn", "sage"])
@pytest.mark.parametrize("shape,hidden", ENGINE_SHAPES)
def test_overlap_off_gathers_nothing(
    tiny_dataset, tiny_book, huge_store, sage_store, model_kind, shape, hidden
):
    """No shape gathers row sets: the split-phase step splits only its
    aggregation, and by column, so in every shape — overlapped included —
    a training epoch and an evaluation work in place on the persistent
    buffers.  Its only scratch blocks, the per-device LayerNorm partials
    and streaming layer 0's aggregation block, are allocated with the
    engine: the arrays it holds do not change."""
    stores = {"gcn": huge_store, "sage": sage_store}
    cluster = _shape_cluster(shape, model_kind, hidden, tiny_dataset, tiny_book, stores)
    engine = cluster.engine
    before = dict(vars(engine))
    held = engine.nbytes
    with cluster:
        cluster.train_epoch(ExactHaloExchange(), 0)
        cluster.evaluate()
    assert engine.nbytes == held
    assert set(vars(engine)) == set(before)
    assert {n for n, v in vars(engine).items() if v is not before[n]} <= {"_d"}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_spmv_dispatch_takes_every_operand(compiled, compiled_kernels, kernel_tier):
    """What the compiled kernel does not take — float64, int64 indices,
    strided blocks — runs on scipy or the public operator, with the same
    overwrite / accumulate meaning on every branch; a shape that does not
    fit is refused before any kernel sees it."""
    import scipy.sparse as sp

    gen = np.random.default_rng(0)
    m = sp.random(9, 6, density=0.4, format="csr", dtype=np.float32, random_state=1)
    wide = m.copy()  # scipy's constructors would narrow the indices again
    wide.indices, wide.indptr = m.indices.astype(np.int64), m.indptr.astype(np.int64)
    x = gen.normal(size=(6, 10)).astype(np.float32)
    cases = [(m, x), (m.astype(np.float64), x.astype(np.float64)), (wide, x),
             (m, np.asfortranarray(x))]  # fmt: skip
    with kernel_tier(compiled_kernels if compiled else None):
        for matrix, xs in cases:
            start = gen.normal(size=(9, 10)).astype(xs.dtype)
            want = start + np.asarray(matrix @ xs)
            got = start.copy()
            assert _spmv(matrix, xs, got, accumulate=True) is got
            np.testing.assert_allclose(got, want, rtol=1e-6)
            strided = np.zeros((9, 20), dtype=xs.dtype)[:, ::2]
            _spmv(matrix, xs, strided)
            np.testing.assert_allclose(strided, matrix @ xs, rtol=1e-6)
        with pytest.raises(ValueError, match="spmv"):
            _spmv(m, x, np.zeros((8, 10), dtype=np.float32))
        with pytest.raises(ValueError, match="spmv"):  # x does not fit the columns
            _spmv(m, x[:5], np.zeros((9, 10), dtype=np.float32))


# ----------------------------------------------------------------------
# Split operator property (hypothesis)
# ----------------------------------------------------------------------
def _aggregation(graph, part, kind):
    """``part``'s whole operator ``P`` over ``graph``'s global degrees."""
    rows = graph.to_scipy()[part.owned_global]
    return build_aggregation(part, rows, graph.degrees.astype(np.float64), kind)[0]


@st.composite
def _ragged_partition(draw):
    n = draw(st.integers(min_value=4, max_value=28))
    parts = draw(st.integers(min_value=1, max_value=min(4, n)))
    n_edges = draw(st.integers(min_value=1, max_value=80))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)
    )
    # Every partition owns at least one node; remainder assigned at random.
    assignment = list(range(parts)) + draw(
        st.lists(st.integers(0, parts - 1), min_size=n - parts, max_size=n - parts)
    )
    kind = draw(st.sampled_from(["gcn", "sage", "sum"]))
    return n, parts, np.asarray(src), np.asarray(dst), np.asarray(assignment), kind


@given(_ragged_partition())
@settings(max_examples=40, deadline=None)
def test_split_operators_equal_per_device_aggregation(case):
    """Every device's quartet, as the engine applies it — the own-column
    half overwriting, the halo-column half accumulating; ``own_t`` /
    ``halo_t`` routing — equals that device's whole operator bitwise."""
    n, parts, src, dst, assignment, kind = case
    graph = Graph.from_edges(src, dst, n)
    book = PartitionBook(part_of=assignment.astype(np.int32), num_parts=parts)
    gen = np.random.default_rng(0)
    dim = 5
    for part in build_local_partitions(graph, book):
        agg = _aggregation(graph, part, kind)
        ops = SplitOperators.split(agg, part.n_owned)
        x_own = gen.normal(size=(part.n_owned, dim)).astype(np.float32)
        x_halo = gen.normal(size=(part.n_halo, dim)).astype(np.float32)
        z = np.full((part.n_owned, dim), np.nan, dtype=np.float32)
        _spmv(ops.own, x_own, z)
        _spmv(ops.halo, x_halo, z, accumulate=True)
        assert np.array_equal(z, aggregate(agg, np.vstack([x_own, x_halo])))

        d_z = gen.normal(size=(part.n_owned, dim)).astype(np.float32)
        d_full = aggregate_transpose(agg, d_z)
        d_own = np.zeros((part.n_owned, dim), dtype=np.float32)
        d_halo = np.zeros((part.n_halo, dim), dtype=np.float32)
        _spmv(ops.own_t, d_z, d_own)
        _spmv(ops.halo_t, d_z, d_halo)
        assert np.array_equal(d_own, d_full[: part.n_owned])
        assert np.array_equal(d_halo, d_full[part.n_owned :])


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
def test_cached_transpose_matches_csc_path(tiny_parts, tiny_dataset):
    for part in tiny_parts:
        agg = _aggregation(tiny_dataset.graph, part, "gcn")
        d_z = np.random.default_rng(0).normal(
            size=(part.n_owned, 6)
        ).astype(np.float32)
        via_csr = aggregate_transpose(agg, d_z)
        via_csc = np.asarray(agg.T @ d_z)
        assert np.array_equal(via_csr, via_csc)
        assert matrix_t(agg).format == "csr"


def test_stack_conv_inputs_paths():
    base = np.arange(24, dtype=np.float32).reshape(8, 3)
    own = base[:5]

    # Empty halo: contiguous input passes through untouched.
    empty = np.zeros((0, 3), dtype=np.float32)
    assert stack_conv_inputs(own, empty) is own
    # Non-contiguous input is made contiguous exactly once.
    strided = base[::2]
    fixed = stack_conv_inputs(strided, np.zeros((0, 3), dtype=np.float32))
    assert fixed.flags.c_contiguous
    assert np.array_equal(fixed, strided)

    # Non-empty halo vstacks (one copy, correct values).
    stacked = stack_conv_inputs(base[5:], base[:5])
    assert not np.shares_memory(stacked, base)
    assert np.array_equal(stacked, np.vstack([base[5:], base[:5]]))


def test_aggregation_stays_float32(tiny_parts, tiny_dataset):
    part = tiny_parts[0]
    for kind in ("gcn", "sage", "sum"):
        agg = _aggregation(tiny_dataset.graph, part, kind)
        assert agg.dtype == np.float32
        assert matrix_t(agg).dtype == np.float32
        x = np.ones((part.n_owned + part.n_halo, 4), dtype=np.float32)
        assert aggregate(agg, x).dtype == np.float32
        d = np.ones((part.n_owned, 4), dtype=np.float32)
        assert aggregate_transpose(agg, d).dtype == np.float32


def test_loss_out_buffer_matches_fresh_allocation():
    gen = np.random.default_rng(0)
    logits = gen.normal(size=(10, 4)).astype(np.float32)
    labels = gen.integers(0, 4, 10)
    mask = gen.random(10) < 0.6
    loss_a, grad_a = softmax_cross_entropy(logits, labels, mask, normalizer=12.0)
    buf = np.full_like(logits, 999.0)
    loss_b, grad_b = softmax_cross_entropy(
        logits, labels, mask, normalizer=12.0, out=buf
    )
    assert loss_a == loss_b
    assert grad_b is buf
    assert np.array_equal(grad_a, grad_b)


def test_eval_forward_logits_equal_the_reference_per_device(tiny_dataset):
    """The exact eval-mode forward ``Cluster.evaluate`` counts its metrics
    from: device ``k``'s block of the stacked logits is, row for row, the
    reference's eval-mode forward on that device."""
    book = partition_graph(tiny_dataset.graph, 2, method="metis", seed=0)
    shape = dict(hidden_dim=8, num_layers=2, dropout=0.0, seed=0)
    cluster = Cluster(tiny_dataset, book, **shape)
    assert isinstance(cluster.engine, FusedClusterCompute)
    engine = cluster._eval_forward()
    reference = ReferenceTrainer(tiny_dataset, book, "exact", model_kind="gcn", **shape)
    for model in reference.models:
        model.eval()
    per_device, _ = reference.forward(ExactPolicy())
    for k, dev in enumerate(reference.devices):
        rows = engine.logits[engine.own_off[k] : engine.own_off[k + 1]]
        assert np.array_equal(rows, per_device[dev.rank])
