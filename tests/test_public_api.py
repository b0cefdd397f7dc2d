"""Public API surface and integration sanity."""

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quickstart_flow():
    """The README's quickstart, end to end."""
    ds = repro.load_dataset("yelp", scale="tiny", seed=0)
    book = repro.partition_graph(ds.graph, 2, method="metis", seed=0)
    cfg = repro.RunConfig(epochs=3, hidden_dim=8, eval_every=1, dropout=0.0)
    result = repro.train("adaqp", ds, book, "2M-1D", cfg)
    assert result.epochs == 3
    assert np.isfinite(result.final_val)
    assert result.system == "adaqp"
    assert result.dataset == "yelp-tiny"
    assert result.topology == "2M-1D"


def test_systems_tuple():
    assert "adaqp" in repro.SYSTEMS and "vanilla" in repro.SYSTEMS


def test_available_datasets():
    assert len(repro.available_datasets("tiny")) == 4


def test_quant_holds_only_what_runs():
    """The per-message reference moved to ``tests/reference/wire.py``, the
    Generator rounding is deleted, and the compiled library is
    ``repro.kernels``: none of them is left in ``repro.quant``."""
    import repro.quant
    from repro.quant import mixed, stochastic

    for name in (
        "QuantizedTensor",
        "quantize_stochastic",
        "quantize_with_noise",
        "dequantize",
        "stochastic_round",
        "block_key",
        "MixedPrecisionEncoder",
    ):
        assert name not in repro.quant.__all__
        for module in (repro.quant, stochastic, mixed):
            with pytest.raises(AttributeError):
                getattr(module, name)
    assert not hasattr(repro.quant.MixedPrecisionPayload, "decode")
    assert not hasattr(repro.quant.KeyedRounding, "block_noise")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.quant.native")


def test_second_statements_are_gone(tiny_dataset, tiny_book, huge_store):
    """Each concern is stated once: the central/marginal split by
    ``LocalPartition`` and the cluster's phase records, SANCUS's broadcast
    by ``schedule_sancus``, the gradient reduction by the engine, a step's
    encode by ``gather_step`` → ``quantize_pack_shard``, which runs
    overlap by ``OVERLAP_SYSTEMS``, the split-phase step by the engine's
    column halves, and the model's forward/backward by the engine over the
    cluster's one parameter set (the per-device statement is the reference
    model under ``tests/reference/``; an elastic resize is a new cluster
    plus ``restore_state``).  An aggregation operator is one
    ``SplitOperators`` quartet per device after set-up, in RAM and in a
    store; RAM holds the features once, in the engine's layer-0 buffer.
    The ``.npz`` formats and the store regions nothing read are gone too."""
    import dataclasses

    from repro.cluster import Cluster

    import repro.comm
    import repro.core
    from repro.comm import allreduce
    from repro.core.config import RunConfig
    from repro.graph import io
    from repro.quant.fused import FusedStepEncoder

    for module in ("repro.core.decompose", "repro.comm.broadcast"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    gone = {
        repro.core: ("DecompositionStats", "decompose_partition"),
        repro.comm: ("sequential_broadcast_time", "allreduce_mean"),
        allreduce: ("allreduce_sum", "allreduce_mean"),
        io: (
            "save_graph",
            "load_graph",
            "save_dataset",
            "load_dataset_file",
            "save_partition_book",
            "load_partition_book",
        ),
    }
    for module, names in gone.items():
        for name in names:
            assert name not in module.__all__
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(FusedStepEncoder, "encode_step")
    assert not hasattr(FusedStepEncoder, "quantize_pack_step")
    assert "overlap" not in {f.name for f in dataclasses.fields(RunConfig)}
    # The split-phase step splits every aggregation by column: no
    # row-restricted copies of the block diagonal, no materialized one.
    from repro.cluster import compute

    for name in ("restrict_rows", "OverlapPlan"):
        assert name not in compute.__all__
        assert not hasattr(compute, name), name
    with Cluster(tiny_dataset, tiny_book, hidden_dim=8, overlap=True) as cluster:
        engine = cluster._compute_engine()
    for attr in ("overlap_plan", "matrix", "matrix_t"):
        assert not hasattr(engine, attr), attr
    # One parameter set: no replica per device, no resize that copies one.
    from repro.cluster.runtime import DeviceRuntime
    from repro.gnn import coefficients, conv, model
    from repro.nn import layers

    assert "model" not in {f.name for f in dataclasses.fields(DeviceRuntime)}
    assert not any(hasattr(dev, "model") for dev in cluster.devices)
    for owner, names in {
        Cluster: ("repartition", "_ctor"),
        cluster: ("repartition", "_ctor"),
        model.GNNLayer: ("forward", "backward"),
        model.DistGNN: ("forward", "backward"),
        conv.GCNConv: ("forward", "backward"),
        conv.SAGEConv: ("forward", "backward"),
        conv: ("stack_conv_inputs",),
        coefficients: ("AggregationContext",),
        compute: ("build_block_diagonal",),
        repro.cluster: ("build_block_diagonal",),
        layers: ("ReLU",),
        layers.Linear: ("forward", "backward"),
        layers.LayerNorm: ("forward", "backward"),
        layers.Dropout: ("forward", "backward"),
    }.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert "stack_conv_inputs" not in conv.__all__
    # One operator form, the features once: no per-device full matrix, no
    # adjacency, and in RAM every device's features are X[0]'s owned block.
    from repro.graph.partition.book import LocalPartition

    assert "adj" not in {f.name for f in dataclasses.fields(LocalPartition)}
    assert "agg" not in {f.name for f in dataclasses.fields(DeviceRuntime)}
    for dev in cluster.devices:
        assert not any(sp.issparse(v) for v in vars(dev).values())
        assert np.shares_memory(dev.features, engine._x[0])
        assert np.array_equal(dev.features, tiny_dataset.features[dev.part.owned_global])
    regions = {n for part in huge_store.header["partitions"] for n in part["regions"]}
    assert "degrees" not in regions
    assert not any(n.startswith(("agg_data", "agg_ind", "adj_")) for n in regions)
