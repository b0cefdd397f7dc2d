"""Schedule simulators: overlap semantics per system."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import ExactHaloExchange, FixedBitProvider, FusedQuantizedHaloExchange
from repro.cluster.perfmodel import PerfModel
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.core.scheduler import (
    SCHEDULES,
    device_comm_times,
    device_compute_times,
    schedule_adaqp,
    schedule_pipegcn,
    schedule_sancus,
    schedule_vanilla,
)
from repro.graph.partition.api import partition_graph
from repro.quant.stochastic import KeyedRounding


@pytest.fixture(scope="module")
def env(tiny_dataset):
    book = partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)
    cluster = Cluster(
        tiny_dataset, book, model_kind="gcn", hidden_dim=16, num_layers=3,
        dropout=0.0, seed=0,
    )
    cost = LinkCostModel.for_topology(parse_topology("2M-2D"))
    perf = PerfModel()
    record = cluster.train_epoch(ExactHaloExchange(), 0)
    q_cluster = Cluster(
        tiny_dataset, book, model_kind="gcn", hidden_dim=16, num_layers=3,
        dropout=0.0, seed=0,
    )
    q_record = q_cluster.train_epoch(
        FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0)), 0
    )
    return record, q_record, cost, perf


def test_vanilla_epoch_is_comm_plus_comp(env):
    record, _, cost, perf = env
    res = schedule_vanilla(record, cost, perf)
    assert res.epoch_time == pytest.approx(res.comm_time + res.comp_time)
    assert res.quant_time == 0.0
    assert res.throughput == pytest.approx(1.0 / res.epoch_time)


def test_adaqp_buckets_sum_to_epoch(env):
    _, q_record, cost, perf = env
    res = schedule_adaqp(q_record, cost, perf)
    assert res.epoch_time == pytest.approx(
        res.comm_time + res.comp_time + res.quant_time
    )
    assert res.quant_time > 0


def test_adaqp_faster_than_vanilla_on_quantized_record(env):
    record, q_record, cost, perf = env
    vanilla = schedule_vanilla(record, cost, perf)
    adaqp = schedule_adaqp(q_record, cost, perf)
    assert adaqp.epoch_time < 0.6 * vanilla.epoch_time  # paper: 2-3x


def test_adaqp_overlap_never_beats_lower_bound(env):
    """Stage 2 is max(comm, central comp): epoch can't undercut either."""
    _, q_record, cost, perf = env
    res = schedule_adaqp(q_record, cost, perf)
    from repro.comm.ring import ring_all2all_time

    ring_only = sum(
        ring_all2all_time(p.bytes_matrix, cost)[0] for p in q_record.phases
    )
    assert res.epoch_time >= ring_only


def test_pipegcn_overlap_semantics(env):
    record, _, cost, perf = env
    res = schedule_pipegcn(record, cost, perf)
    vanilla = schedule_vanilla(record, cost, perf)
    assert res.epoch_time < vanilla.epoch_time
    # Epoch is the max of the overlapped quantities plus the allreduce.
    assert res.epoch_time <= max(res.comm_time, res.comp_time) + 1e-9
    assert "overlapped" in res.detail


def test_sancus_sequential_slower_than_ring(env):
    record, _, cost, perf = env
    sancus = schedule_sancus(record, cost, perf)
    vanilla = schedule_vanilla(record, cost, perf)
    # Same byte matrices, but serialized pairwise: comm must be larger.
    assert sancus.comm_time > vanilla.comm_time


def test_schedule_registry(env):
    record, _, cost, perf = env
    assert set(SCHEDULES) == {
        "vanilla", "adaqp", "pipegcn", "sancus",
        "quantized-no-overlap",
    }
    for fn in SCHEDULES.values():
        res = fn(record, cost, perf)
        assert res.epoch_time > 0


def test_device_comm_times_shape_and_positivity(env):
    record, _, cost, perf = env
    comm = device_comm_times(record, cost)
    assert comm.shape == (4,)
    assert (comm > 0).all()


def test_device_compute_times_central_less_than_total(env):
    record, _, cost, perf = env
    total = device_compute_times(record, perf)
    central = device_compute_times(record, perf, central_only=True)
    assert (central < total).all()
    assert (central > 0).all()


def test_empty_record_rejected(env):
    from repro.cluster.records import EpochRecord

    _, _, cost, perf = env
    with pytest.raises(ValueError):
        device_comm_times(EpochRecord(loss=0.0), cost)
    with pytest.raises(ValueError):
        device_compute_times(EpochRecord(loss=0.0), perf)
