"""Simulated multi-GPU cluster runtime.

One :class:`DeviceRuntime` per simulated GPU holds that device's graph
partition, aggregation operator, data and dropout stream; the
:class:`Cluster` holds the one parameter set every device computes with,
and drives all devices in lock-step through real forward and backward
passes, routing *real* halo payloads through one
:class:`~repro.comm.transport.Transport` — jobs inline, or on its pool of
worker threads — so every byte on the simulated wire is a byte that was
actually produced, quantized and packed, and records the per-layer byte
matrices and FLOP counts that the schedule simulators turn into epoch
times.
"""

from repro.cluster.compute import FusedClusterCompute
from repro.cluster.memory import MemoryFootprint, estimate_memory
from repro.cluster.perfmodel import PerfModel
from repro.cluster.records import EpochRecord, PhaseRecord, StepTimeline, TimelineSummary
from repro.cluster.exchange import (
    BitProvider,
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
    UniformRandomBitProvider,
)
from repro.cluster.runtime import DeviceRuntime
from repro.cluster.cluster import Cluster

__all__ = [
    "FusedClusterCompute",
    "MemoryFootprint",
    "estimate_memory",
    "PerfModel",
    "EpochRecord",
    "PhaseRecord",
    "StepTimeline",
    "TimelineSummary",
    "ExactHaloExchange",
    "FusedQuantizedHaloExchange",
    "BitProvider",
    "FixedBitProvider",
    "UniformRandomBitProvider",
    "DeviceRuntime",
    "Cluster",
]
