"""Ablation systems: quantization-only and overlap-only variants."""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.scheduler import schedule_quantized_no_overlap, schedule_vanilla
from repro.core.trainer import train
from repro.graph.partition.api import partition_graph


@pytest.fixture(scope="module")
def case(tiny_single_label_dataset):
    ds = tiny_single_label_dataset
    book = partition_graph(ds.graph, 4, method="metis", seed=0)
    cfg = RunConfig(epochs=6, hidden_dim=16, eval_every=3, dropout=0.0,
                    reassign_period=3)
    return ds, book, cfg


def test_ablation_systems_train(case):
    ds, book, cfg = case
    for system in ("adaqp-no-overlap", "vanilla-overlap"):
        result = train(system, ds, book, "2M-2D", cfg)
        assert np.isfinite(result.final_val)
        assert result.epochs == 6


def test_quantization_only_faster_than_vanilla(case):
    ds, book, cfg = case
    vanilla = train("vanilla", ds, book, "2M-2D", cfg)
    quant_only = train("adaqp-no-overlap", ds, book, "2M-2D", cfg)
    assert quant_only.throughput > vanilla.throughput


def test_overlap_only_matches_vanilla_accuracy_exactly(case):
    """Full-precision overlap changes scheduling, not numerics."""
    ds, book, cfg = case
    vanilla = train("vanilla", ds, book, "2M-2D", cfg)
    overlap = train("vanilla-overlap", ds, book, "2M-2D", cfg)
    assert vanilla.curve_loss == overlap.curve_loss
    assert vanilla.final_val == overlap.final_val
    assert overlap.epoch_time_mean <= vanilla.epoch_time_mean + 1e-12


def test_full_adaqp_at_least_as_fast_as_either_part(case):
    ds, book, cfg = case
    adaqp = train("adaqp", ds, book, "2M-2D", cfg)
    quant_only = train("adaqp-no-overlap", ds, book, "2M-2D", cfg)
    overlap_only = train("vanilla-overlap", ds, book, "2M-2D", cfg)
    assert adaqp.throughput >= 0.95 * quant_only.throughput
    assert adaqp.throughput > overlap_only.throughput


def test_no_overlap_schedule_stacks_quant_on_critical_path(case):
    """schedule_quantized_no_overlap = vanilla schedule + quant kernels."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.exchange import FixedBitProvider, FusedQuantizedHaloExchange
    from repro.cluster.perfmodel import PerfModel
    from repro.comm.costmodel import LinkCostModel
    from repro.comm.topology import parse_topology
    from repro.quant.stochastic import KeyedRounding

    ds, book, cfg = case
    cluster = Cluster(ds, book, model_kind="gcn", hidden_dim=16, num_layers=3,
                      dropout=0.0, seed=0)
    record = cluster.train_epoch(
        FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0)), 0
    )
    cost = LinkCostModel.for_topology(parse_topology("2M-2D"))
    perf = PerfModel()
    no_overlap = schedule_quantized_no_overlap(record, cost, perf)
    vanilla_view = schedule_vanilla(record, cost, perf)
    assert no_overlap.quant_time > 0
    assert no_overlap.epoch_time == pytest.approx(
        vanilla_view.epoch_time + no_overlap.quant_time
    )
