"""Ring-allreduce time model (model gradients are reduced exactly, in
float64 rank order, by the engine itself)."""

from repro.comm.allreduce import ring_allreduce_time
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import ClusterTopology


def test_ring_allreduce_time_scaling():
    cost = LinkCostModel.for_topology(ClusterTopology(1, 3))
    t1 = ring_allreduce_time(10**6, cost)
    t2 = ring_allreduce_time(2 * 10**6, cost)
    assert t2 > t1
    assert ring_allreduce_time(0, cost) == 0.0
    single = LinkCostModel.for_topology(ClusterTopology(1, 1))
    assert ring_allreduce_time(10**6, single) == 0.0
