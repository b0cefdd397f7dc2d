"""Deep integration tests across the whole stack.

These go beyond per-module checks: numerical weight gradients through the
full distributed pipeline, robustness across seeds and model shapes, and
the end-to-end invariants the reproduction rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import ExactHaloExchange, FixedBitProvider, FusedQuantizedHaloExchange
from repro.core.config import RunConfig
from repro.core.trainer import train
from repro.graph.graph import Graph
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook
from repro.graph.partition.quality import balance
from repro.graph.datasets import GraphDataset, DatasetSpec
from repro.graph.partition.metis_like import metis_like_partition
from repro.quant.stochastic import KeyedRounding


def _tiny_case(n=30, seed=3, num_classes=3, num_feats=6):
    """A miniature dataset + 2-part book for gradient-level checks."""
    gen = np.random.default_rng(seed)
    src = gen.integers(0, n, 4 * n)
    dst = gen.integers(0, n, 4 * n)
    graph = Graph.from_edges(src, dst, n)
    features = gen.normal(size=(n, num_feats)).astype(np.float32)
    labels = gen.integers(0, num_classes, n)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[: n // 2] = True
    spec = DatasetSpec(
        name="unit", paper_name="unit", num_nodes=n, avg_degree=4.0,
        num_features=num_feats, num_classes=num_classes, multilabel=False,
    )
    ds = GraphDataset(
        spec=spec, graph=graph, features=features, labels=labels,
        train_mask=train_mask, val_mask=~train_mask, test_mask=~train_mask,
    )
    book = PartitionBook(
        part_of=(np.arange(n) % 2).astype(np.int32), num_parts=2
    )
    return ds, book


def test_full_stack_weight_gradient_numerical():
    """dL/dW through the *distributed* pipeline matches finite differences.

    This exercises partitioning, halo exchange, both conv directions,
    LayerNorm/ReLU, the masked loss, halo-gradient routing and the
    allreduce — everything except quantization (exact exchange).
    """
    ds, book = _tiny_case()

    def loss_for(cluster):
        return cluster.train_epoch(ExactHaloExchange(), 0).loss

    base = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                   dropout=0.0, seed=0)
    loss_for(base)  # populates the reduced gradients
    analytic = base.model.layers[0].conv.linear.weight.grad.copy()

    eps = 1e-3
    w_shape = analytic.shape
    gen = np.random.default_rng(0)
    for _ in range(6):  # spot-check 6 random weight entries
        i, j = gen.integers(0, w_shape[0]), gen.integers(0, w_shape[1])
        plus = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                       dropout=0.0, seed=0)
        plus.model.layers[0].conv.linear.weight.data[i, j] += eps
        minus = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                        dropout=0.0, seed=0)
        minus.model.layers[0].conv.linear.weight.data[i, j] -= eps
        numeric = (loss_for(plus) - loss_for(minus)) / (2 * eps)
        assert abs(numeric - analytic[i, j]) < 5e-3 * max(1.0, abs(numeric)) + 1e-4


def test_8bit_quantization_barely_perturbs_gradients():
    ds, book = _tiny_case()
    exact = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                    dropout=0.0, seed=0)
    exact.train_epoch(ExactHaloExchange(), 0)
    g_exact = exact.model.grad_vector()

    quant = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                    dropout=0.0, seed=0)
    quant.train_epoch(
        FusedQuantizedHaloExchange(FixedBitProvider(8), KeyedRounding(0)), 0
    )
    g_quant = quant.model.grad_vector()
    rel = np.linalg.norm(g_exact - g_quant) / (np.linalg.norm(g_exact) + 1e-12)
    assert rel < 0.05


def test_gradient_noise_decreases_with_bits():
    """Theorem 3's premise observed end to end: more bits, less gradient
    deviation from the exact run."""
    ds, book = _tiny_case(n=60)
    exact = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                    dropout=0.0, seed=0)
    exact.train_epoch(ExactHaloExchange(), 0)
    g_exact = exact.model.grad_vector()

    def deviation(bits):
        devs = []
        for trial in range(8):
            c = Cluster(ds, book, model_kind="gcn", hidden_dim=4, num_layers=2,
                        dropout=0.0, seed=0)
            c.train_epoch(
                FusedQuantizedHaloExchange(
                    FixedBitProvider(bits), KeyedRounding(trial)
                ),
                0,
            )
            devs.append(
                np.linalg.norm(c.model.grad_vector() - g_exact)
            )
        return float(np.mean(devs))

    d2, d4, d8 = deviation(2), deviation(4), deviation(8)
    assert d2 > d4 > d8


@pytest.mark.parametrize("num_layers", [1, 2, 4])
def test_any_depth_trains(num_layers):
    ds, book = _tiny_case()
    cfg = RunConfig(epochs=2, hidden_dim=8, num_layers=num_layers,
                    eval_every=1, dropout=0.0)
    result = train("adaqp", ds, book, "2M-1D", cfg)
    assert np.isfinite(result.final_val)
    assert len(result.epoch_times) == 2


def test_seed_stability_of_accuracy(tiny_single_label_dataset):
    """Accuracy varies little across seeds (the paper reports std <= 0.4)."""
    ds = tiny_single_label_dataset
    finals = []
    for seed in range(3):
        book = partition_graph(ds.graph, 4, method="metis", seed=0)
        cfg = RunConfig(epochs=30, hidden_dim=16, eval_every=30, dropout=0.3,
                        seed=seed)
        finals.append(train("adaqp", ds, book, "2M-2D", cfg).final_val)
    assert float(np.std(finals)) < 0.035


@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_property_metis_balanced_on_random_graphs(seed, k):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3 * k, 120))
    src = gen.integers(0, n, 4 * n)
    dst = gen.integers(0, n, 4 * n)
    graph = Graph.from_edges(src, dst, n)
    book = metis_like_partition(graph, k, seed=seed)
    assert book.num_parts == k
    assert (book.sizes() > 0).all()
    assert balance(book) <= 2.0  # loose bound for tiny adversarial graphs
