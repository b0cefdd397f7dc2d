"""Adaptive Bit-width Assigner: tracing, re-assignment, scattering."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import FusedQuantizedHaloExchange
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.core import bilp
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.graph.partition.api import partition_graph
from repro.quant.stochastic import KeyedRounding


@pytest.fixture(scope="module")
def setup(tiny_dataset):
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    cluster = Cluster(
        tiny_dataset, book, model_kind="gcn", hidden_dim=8, num_layers=2,
        dropout=0.0, seed=0,
    )
    cost = LinkCostModel.for_topology(parse_topology("2M-2D"))
    return cluster, cost


def _assigner(setup, **kwargs):
    cluster, cost = setup
    defaults = dict(lam=0.5, group_size=50, period=2, default_bits=8)
    defaults.update(kwargs)
    return AdaptiveBitWidthAssigner(cluster, cost, **defaults)


def _traced(setup, **kwargs):
    """An assigner holding one epoch's traces (period 2: epoch 1 is read)."""
    cluster, _ = setup
    assigner = _assigner(setup, **kwargs)
    exchange = FusedQuantizedHaloExchange(assigner, KeyedRounding(0), tracer=assigner)
    cluster.train_epoch(exchange, 1)
    return assigner


def test_default_bits_before_first_solve(setup):
    assigner = _assigner(setup)
    bits = assigner.bits_for(0, "fwd", 0, 1, 10)
    assert np.all(bits == 8)


def test_reassign_after_training_epochs(setup):
    cluster, cost = setup
    assigner = _assigner(setup)
    exchange = FusedQuantizedHaloExchange(assigner, KeyedRounding(0), tracer=assigner)
    for epoch in range(3):
        cluster.train_epoch(exchange, epoch)
    assert assigner.num_reassignments >= 1
    assert assigner.assignment_seconds > 0
    hist = assigner.assignment_histogram()
    assert sum(hist.values()) > 0
    assert set(hist) <= {2, 4, 8}


def test_assignments_aligned_with_message_counts(setup):
    cluster, cost = setup
    assigner = _traced(setup)
    assigner.reassign()
    assert assigner._assignments
    for dev in cluster.devices:
        for q, rows in dev.part.send_map.items():
            bits = assigner.bits_for(0, "fwd", dev.rank, q, rows.size)
            assert bits.shape == (rows.size,)
            assert set(np.unique(bits)) <= {2, 4, 8}


def test_observe_records_latest(setup):
    assigner = _assigner(setup)
    rows = np.array([[0.0, 2.0], [1.0, 5.0]], dtype=np.float32)
    assigner.observe("fwd", 0, 0, 1, rows)
    entry = assigner._traces[("fwd", 0, 0, 1)]
    assert np.allclose(entry.value_range, [2.0, 4.0])
    assert entry.dim == 2
    assigner.observe("fwd", 0, 0, 1, rows * 2)
    assert np.allclose(assigner._traces[("fwd", 0, 0, 1)].value_range, [4.0, 8.0])


def test_empty_observation_ignored(setup):
    assigner = _assigner(setup)
    assigner.observe("fwd", 0, 0, 1, np.zeros((0, 4), dtype=np.float32))
    assert ("fwd", 0, 0, 1) not in assigner._traces


def test_set_epoch_period_gating(setup):
    assigner = _assigner(setup, period=5)
    assigner.observe("fwd", 0, 0, 1, np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32))
    assigner.set_epoch(0)  # epoch 0 never triggers
    assert assigner.num_reassignments == 0
    assigner.set_epoch(3)  # not a boundary
    assert assigner.num_reassignments == 0
    assigner.set_epoch(5)
    assert assigner.num_reassignments == 1


def test_lam_extremes_flow_through(setup):
    # λ=1 → pure variance minimization → (almost) everything at max bits —
    # messages with zero traced range (β = 0) gain nothing from precision
    # and legitimately drop to 2 bits via the solver's byte tie-break;
    # λ=0 → pure time minimization → essentially everything at min bits.
    cluster, cost = setup
    for lam, expected, min_frac in ((1.0, 8, 0.95), (0.0, 2, 0.95)):
        assigner = _traced(setup, lam=lam)
        assigner.reassign()
        hist = assigner.assignment_histogram()
        total = sum(hist.values())
        assert total > 0
        assert hist.get(expected, 0) >= min_frac * total


def _assert_same_assignments(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key, bits in a.items():
        np.testing.assert_array_equal(bits, b[key])


def test_default_solver_is_exact_and_never_reaches_milp(setup, monkeypatch):
    def no_milp(*args, **kwargs):
        raise AssertionError("the default assigner must not call scipy.optimize.milp")

    monkeypatch.setattr(bilp, "milp", no_milp)
    assigner = _traced(setup)
    assert assigner.solver == "exact"
    assigner.reassign()
    assert assigner._assignments
    oracle = _traced(setup, solver="milp")
    with pytest.raises(AssertionError, match="must not call"):
        oracle.reassign()  # the patch does guard the MILP path


def test_assignments_are_a_pure_function_of_the_traces(setup):
    """Solving twice, and solving from a state_dict round trip, scatter the
    same bits: no time limit, no fallback, no host speed in the result."""
    assigner = _traced(setup)
    state = assigner.state_dict()
    assigner.reassign()
    first = {key: bits.copy() for key, bits in assigner._assignments.items()}
    assigner.reassign()
    assert assigner.num_reassignments == 2
    _assert_same_assignments(first, assigner._assignments)

    restored = _assigner(setup)
    restored.load_state_dict(state)
    restored.reassign()
    _assert_same_assignments(first, restored._assignments)


def test_exact_matches_the_milp_oracle_on_traced_problems(setup):
    """Same objective value per problem (the assignments may differ where
    the optimum is not unique or HiGHS stops inside its gap)."""
    assigner = _traced(setup)
    for _, _, problem, _ in assigner.problems():
        exact = problem.scalarized(bilp.solve_exact(problem))
        oracle = problem.scalarized(bilp.solve_milp(problem))
        assert exact == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("solver", ["milp", "greedy"])
def test_other_solver_options(setup, solver):
    assigner = _traced(setup, solver=solver, group_size=500)
    assigner.reassign()
    assert assigner.num_reassignments == 1
    assert assigner._assignments


def test_constructor_validation(setup):
    cluster, cost = setup
    with pytest.raises(ValueError):
        AdaptiveBitWidthAssigner(cluster, cost, group_size=0)
    with pytest.raises(ValueError):
        AdaptiveBitWidthAssigner(cluster, cost, period=0)
    with pytest.raises(ValueError):
        AdaptiveBitWidthAssigner(cluster, cost, solver="simplex")
    with pytest.raises(ValueError):
        AdaptiveBitWidthAssigner(cluster, cost, default_bits=3)
