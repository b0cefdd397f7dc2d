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


# Captured from the schedules' own output; every value is compared with
# ``==``, so any change to the float operations or their order shows here.
# (epoch_time, comm_time, comp_time, quant_time) per schedule.
_PINNED_SCHEDULES = {
    "exact": {
        "vanilla": (
            "0x1.1887f6aef372fp-2", "0x1.cd58e3c6e4556p-3",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
        "adaqp": (
            "0x1.0613719387ce6p-2", "0x1.cd58e3c6e4556p-3",
            "0x1.f66ffb015a39dp-6", "0x0.0p+0",
        ),
        "pipegcn": (
            "0x1.cd58e3c6e4556p-3", "0x1.cd58e3c6e4556p-3",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
        "sancus": (
            "0x1.bdda968ef82b0p-2", "0x1.8bff11c376e2cp-2",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
        "quantized-no-overlap": (
            "0x1.1887f6aef372fp-2", "0x1.cd58e3c6e4556p-3",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
    },
    "2bit": {
        "vanilla": (
            "0x1.d2ac34d1c3d79p-4", "0x1.0b3e21a3beb69p-4",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
        "adaqp": (
            "0x1.a33ed091eff3bp-4", "0x1.102d49ba33422p-4",
            "0x1.f66ffb015a39dp-6", "0x1.5758817662320p-8",
        ),
        "pipegcn": (
            "0x1.0b3e21a3beb69p-4", "0x1.0b3e21a3beb69p-4",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
        "sancus": (
            "0x1.733dfab76bbc9p-3", "0x1.0f86f120692c1p-3",
            "0x1.8edc265c0a420p-5", "0x0.0p+0",
        ),
        "quantized-no-overlap": (
            "0x1.e821bce929fabp-4", "0x1.0b3e21a3beb69p-4",
            "0x1.8edc265c0a420p-5", "0x1.5758817662320p-8",
        ),
    },
}
_PINNED_COMM = {
    "exact": [
        "0x1.fdf7e80389f84p-4", "0x1.bd512ec6bce84p-5",
        "0x1.0f49491f2dc2ap-4", "0x1.0817fc7607c41p-3",
    ],
    "2bit": [
        "0x1.187e7c06e19b8p-5", "0x1.92f7bee8de7b4p-6",
        "0x1.adb687102a19cp-6", "0x1.1d811a46d3233p-5",
    ],
}
# Compute depends on FLOPs only, so both records price identically.
_PINNED_COMPUTE = [
    "0x1.8edc265c0a420p-5", "0x1.68dfda0c6d126p-5",
    "0x1.6b33c74971d59p-5", "0x1.3dc524289af08p-5",
]
_PINNED_CENTRAL = [
    "0x1.4e9aa61764aeep-6", "0x1.2485706ccf8c2p-5",
    "0x1.dcb2c8ea9509cp-6", "0x1.17f9295a7aae3p-6",
]


def test_simulated_clock_is_bit_pinned(env):
    record, q_record, cost, perf = env
    for label, rec in (("exact", record), ("2bit", q_record)):
        got = {
            name: tuple(
                float(v).hex()
                for v in (res.epoch_time, res.comm_time, res.comp_time, res.quant_time)
            )
            for name, res in ((n, fn(rec, cost, perf)) for n, fn in SCHEDULES.items())
        }
        assert got == _PINNED_SCHEDULES[label], label
        comm = [float(v).hex() for v in device_comm_times(rec, cost)]
        assert comm == _PINNED_COMM[label], label
        comp = [float(v).hex() for v in device_compute_times(rec, perf)]
        assert comp == _PINNED_COMPUTE, label
        central = device_compute_times(rec, perf, central_only=True)
        assert [float(v).hex() for v in central] == _PINNED_CENTRAL, label
