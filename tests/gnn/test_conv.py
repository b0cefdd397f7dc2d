"""Graph convolutions: gradients including the halo path.

The per-device forward/backward is the reference model's
(``tests/reference/model.py``); production's parameter-only model and its
operand-order rule are checked directly.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.model import GCNConv, GNNLayer, SAGEConv

from repro.gnn import conv as conv_params
from repro.gnn.coefficients import build_aggregation
from repro.gnn.conv import transform_first
from repro.gnn.model import DistGNN
from repro.graph.graph import Graph
from repro.graph.partition.book import PartitionBook, build_local_partitions
from repro.nn.gradcheck import numerical_gradient, relative_error

RNG = np.random.default_rng(0)


def _two_part_case(kind):
    gen = np.random.default_rng(1)
    n = 20
    src = gen.integers(0, n, 60)
    dst = gen.integers(0, n, 60)
    graph = Graph.from_edges(src, dst, n)
    book = PartitionBook(
        part_of=(np.arange(n) % 2).astype(np.int32), num_parts=2
    )
    parts = build_local_partitions(graph, book)
    deg = graph.degrees.astype(np.float64)
    rows = graph.to_scipy()[parts[0].owned_global]
    agg, _ = build_aggregation(parts[0], rows, deg, kind)
    return parts[0], agg


@pytest.mark.parametrize("kind,cls", [("gcn", GCNConv), ("sage", SAGEConv)])
def test_conv_forward_shape(kind, cls):
    part, agg = _two_part_case(kind)
    conv = cls(6, 4, agg, np.random.default_rng(0))
    x_own = RNG.normal(size=(part.n_owned, 6)).astype(np.float32)
    x_halo = RNG.normal(size=(part.n_halo, 6)).astype(np.float32)
    out = conv.forward(x_own, x_halo)
    assert out.shape == (part.n_owned, 4)


#: (in, out) widths on either side of the operand-order rule: 3 → 2 makes
#: GCNConv transform first, 2 → 3 aggregate first.
WIDTHS = [(3, 2), (2, 3)]


@pytest.mark.parametrize("kind,cls", [("gcn", GCNConv), ("sage", SAGEConv)])
@pytest.mark.parametrize("d_in,d_out", WIDTHS)
def test_conv_gradcheck_own_input(kind, cls, d_in, d_out):
    part, agg = _two_part_case(kind)
    conv = cls(d_in, d_out, agg, np.random.default_rng(0))
    x_own0 = RNG.normal(size=(part.n_owned, d_in))
    x_halo = RNG.normal(size=(part.n_halo, d_in))
    d_out = RNG.normal(size=(part.n_owned, d_out))

    def f(x):
        return float((conv.forward(x, x_halo) * d_out).sum())

    num = numerical_gradient(f, x_own0)
    conv.forward(x_own0, x_halo)
    d_own, _ = conv.backward(d_out)
    assert relative_error(num, d_own) < 1e-4


@pytest.mark.parametrize("kind,cls", [("gcn", GCNConv), ("sage", SAGEConv)])
@pytest.mark.parametrize("d_in,d_out", WIDTHS)
def test_conv_gradcheck_halo_input(kind, cls, d_in, d_out):
    """The halo gradient is exactly what AdaQP sends backward — check it."""
    part, agg = _two_part_case(kind)
    conv = cls(d_in, d_out, agg, np.random.default_rng(0))
    x_own = RNG.normal(size=(part.n_owned, d_in))
    x_halo0 = RNG.normal(size=(part.n_halo, d_in))
    d_out = RNG.normal(size=(part.n_owned, d_out))

    def f(xh):
        return float((conv.forward(x_own, xh) * d_out).sum())

    num = numerical_gradient(f, x_halo0)
    conv.forward(x_own, x_halo0)
    _, d_halo = conv.backward(d_out)
    assert d_halo.shape == x_halo0.shape
    assert relative_error(num, d_halo) < 1e-4


# ----------------------------------------------------------------------
# Operand order: P·(X̃·W) against (P·X̃)·W, anchored outside the engines
# ----------------------------------------------------------------------
def test_operand_order_is_a_function_of_shape():
    assert transform_first(256, 8)
    assert not transform_first(8, 8)
    assert not transform_first(8, 24)
    _, agg = _two_part_case("gcn")
    for d_in, d_out in [(6, 4), (4, 4), (4, 6)]:
        rng = np.random.default_rng(0)
        for conv in (
            conv_params.GCNConv(d_in, d_out, rng), GCNConv(d_in, d_out, agg, rng)
        ):
            assert conv.transform_first == (d_out < d_in)
        assert not conv_params.SAGEConv(d_in, d_out, rng).transform_first
        assert not SAGEConv(d_in, d_out, agg, rng).transform_first


def _float64_gcn(n_own, n_halo, d_in, d_out, seed, *, order):
    """A GCNConv on a drawn float64 operator with float64 parameters and a
    forced operand order — nothing but the association differs between the
    two orders, so they must agree to rounding."""
    gen = np.random.default_rng(seed)
    shape = (n_own, n_own + n_halo)
    dense = gen.normal(size=shape) * (gen.random(shape) < 0.4)
    conv = GCNConv(d_in, d_out, sp.csr_matrix(dense), np.random.default_rng(seed))
    for p in conv.parameters():
        p.data = gen.normal(size=p.shape)
        p.grad = np.zeros(p.shape)
    conv.transform_first = order
    inputs = (
        gen.normal(size=(n_own, d_in)),
        gen.normal(size=(n_halo, d_in)),
        gen.normal(size=(n_own, d_out)),
    )
    return conv, inputs


def _run_order(case, order):
    conv, (x_own, x_halo, d_y) = _float64_gcn(*case, order=order)
    out = conv.forward(x_own, x_halo)
    d_own, d_halo = conv.backward(d_y)
    return (
        out,
        conv.linear.weight.grad,
        conv.linear.bias.grad,
        np.vstack([d_own, d_halo]),
    )


@given(
    n_own=st.integers(1, 12),
    n_halo=st.integers(0, 9),
    d_in=st.integers(1, 7),
    d_out=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_operand_orders_agree_in_float64(n_own, n_halo, d_in, d_out, seed):
    """Outputs and all three gradients — weight, bias, ``[d_own; d_halo]``
    — of the two orders agree to 1e-12, empty halos included."""
    case = (n_own, n_halo, d_in, d_out, seed)
    for first, then in zip(_run_order(case, True), _run_order(case, False)):
        assert first.shape == then.shape
        np.testing.assert_allclose(first, then, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [True, False])
@pytest.mark.parametrize("n_halo", [0, 4])
def test_gcn_gradcheck_both_orders(order, n_halo):
    """Finite differences against every analytic gradient, per order."""
    conv, (x_own, x_halo, d_y) = _float64_gcn(6, n_halo, 3, 2, 5, order=order)
    weight, bias = conv.linear.weight, conv.linear.bias

    def loss(*_):
        return float((conv.forward(x_own, x_halo) * d_y).sum())

    conv.forward(x_own, x_halo)
    d_own, d_halo = conv.backward(d_y)
    # numerical_gradient perturbs a float64 argument in place, so handing
    # it the live arrays (``.data`` for parameters) is the whole harness.
    for analytic, wrt in [
        (weight.grad, weight.data),
        (bias.grad, bias.data),
        (d_own, x_own),
        (d_halo, x_halo),
    ]:
        numeric = numerical_gradient(loss, wrt, eps=1e-5)
        assert relative_error(numeric, analytic) < 1e-6


@pytest.mark.parametrize("parts", [2, 4])
@pytest.mark.parametrize(
    "hidden", [16, 48, 64], ids=["narrowing", "equal-width", "widening"]
)
def test_partition_invariance_of_training(
    tiny_dataset, single_part_book, parts, hidden
):
    """Exact (vanilla) training on M partitions is the 1-partition run:
    same losses over three optimizer steps, whichever order the first
    layer (48 → hidden) evaluates its products in — distribution and
    operand order are both invisible to the math."""
    from repro.core.config import RunConfig
    from repro.core.trainer import train
    from repro.graph.partition.api import partition_graph

    cfg = RunConfig(epochs=3, hidden_dim=hidden, dropout=0.0, eval_every=3, seed=3)
    whole = train("vanilla", tiny_dataset, single_part_book, "1M-1D", cfg)
    book = partition_graph(tiny_dataset.graph, parts, method="metis", seed=0)
    split = train("vanilla", tiny_dataset, book, f"1M-{parts}D", cfg)
    assert len(whole.curve_loss) == 3
    np.testing.assert_allclose(split.curve_loss, whole.curve_loss, rtol=1e-5)


def test_conv_backward_before_forward():
    part, agg = _two_part_case("gcn")
    conv = GCNConv(3, 2, agg, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        conv.backward(np.zeros((part.n_owned, 2), dtype=np.float32))


def test_sage_root_path_separate_from_neighbors():
    """With a zero halo + zero neighbors, SAGE reduces to the root Linear."""
    part, agg = _two_part_case("sage")
    conv = SAGEConv(3, 2, agg, np.random.default_rng(0))
    x_own = RNG.normal(size=(part.n_owned, 3)).astype(np.float32)
    zeros_own = np.zeros_like(x_own)
    x_halo = np.zeros((part.n_halo, 3), dtype=np.float32)
    out_zero_neigh = conv.forward(x_own, x_halo) - conv.forward(zeros_own, x_halo)
    # Root contribution is linear in x_own with both terms sharing x_own;
    # simply check the conv output changes when only x_own changes.
    assert np.abs(out_zero_neigh).sum() > 0


def test_gnn_layer_output_flag():
    model = DistGNN("gcn", [4, 4, 4], dropout=0.0, weight_rng=np.random.default_rng(0))
    hidden, output = model.layers
    assert hasattr(hidden, "norm") and not hasattr(output, "norm")
    assert hidden.has_post_stage and not output.has_post_stage


def test_gnn_layer_gradcheck_through_post_processing():
    part, agg = _two_part_case("gcn")
    layer = GNNLayer(
        "gcn", 3, 3, agg, np.random.default_rng(0), dropout=0.0, is_output=False,
        dropout_rng=np.random.default_rng(1),
    )
    layer.train()
    x_own0 = RNG.normal(size=(part.n_owned, 3))
    x_halo = RNG.normal(size=(part.n_halo, 3))
    d_out = RNG.normal(size=(part.n_owned, 3))

    def f(x):
        return float((layer.forward(x, x_halo) * d_out).sum())

    num = numerical_gradient(f, x_own0)
    layer.forward(x_own0, x_halo)
    d_own, _ = layer.backward(d_out)
    assert relative_error(num, d_own) < 5e-4


def test_distgnn_construction_and_dims():
    """Production's model holds parameters only — no operator, no dropout
    stream, no per-call forward/backward — drawn from the init stream in
    the reference replica's order."""
    part, agg = _two_part_case("gcn")
    model = DistGNN("gcn", [8, 16, 4], dropout=0.5, weight_rng=np.random.default_rng(0))
    assert model.num_layers == 2
    assert model.layers[-1].is_output
    assert model.layers[0].drop.p == 0.5
    for layer in model.layers:
        assert not hasattr(layer, "forward") and not hasattr(layer.conv, "agg")
    replica = GNNLayer(
        "gcn", 8, 16, agg, np.random.default_rng(0), dropout=0.5, is_output=False,
        dropout_rng=np.random.default_rng(1),
    )
    for name, param in model.layers[0].named_parameters():
        assert np.array_equal(dict(replica.named_parameters())[name].data, param.data)


def test_distgnn_validation():
    with pytest.raises(ValueError):
        DistGNN("gcn", [8], dropout=0.0, weight_rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        DistGNN("gat", [8, 4], dropout=0.0, weight_rng=np.random.default_rng(0))
