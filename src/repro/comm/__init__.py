"""Communication substrate for the simulated cluster.

The paper's testbed — multiple machines with several GPUs each, 100 Gbps
Ethernet between machines — is modelled by:

* :class:`ClusterTopology` — the ``xM-yD`` device layout;
* :class:`LinkCostModel` — per-device-pair linear cost ``t = θ·bytes + γ``
  (Sarvotham et al., the cost model the paper's Eqn. 10 uses), with
  distinct intra-/inter-machine tiers and least-squares calibration;
* :mod:`repro.comm.ring` — the ring all2all schedule (paper Fig. 8) with
  per-round straggler barriers;
* :mod:`repro.comm.broadcast` — the sequential broadcast pattern SANCUS
  uses (slower than ring all2all, as the paper observes);
* :mod:`repro.comm.allreduce` — exact gradient averaging plus the ring
  allreduce time model;
* the **transport backends** — the in-memory mailbox that routes *real*
  message payloads between simulated devices and counts every byte, in
  two config-selectable flavours behind one
  :class:`~repro.comm.transport.TransportBackend` API:
  :class:`SyncTransport` (inline) and :class:`WorkerTransport` (thread
  pool).  :mod:`repro.comm.transports` holds the ``"worker:4"``-style
  selection specs.
"""

from repro.comm.topology import ClusterTopology, parse_topology
from repro.comm.costmodel import LinkCostModel, fit_linear_cost
from repro.comm.ring import ring_all2all_time, ring_rounds
from repro.comm.broadcast import sequential_broadcast_time
from repro.comm.allreduce import allreduce_mean, ring_allreduce_time
from repro.comm.transport import (
    SyncTransport,
    TransportAccounting,
    TransportBackend,
    WorkerTransport,
    host_has_spare_core,
)
from repro.comm.transports import (
    TransportSpec,
    create_transport,
    parse_transport_spec,
    resolve_spec,
)

__all__ = [
    "ClusterTopology",
    "parse_topology",
    "LinkCostModel",
    "fit_linear_cost",
    "ring_rounds",
    "ring_all2all_time",
    "sequential_broadcast_time",
    "allreduce_mean",
    "ring_allreduce_time",
    "TransportBackend",
    "TransportAccounting",
    "SyncTransport",
    "WorkerTransport",
    "host_has_spare_core",
    "TransportSpec",
    "create_transport",
    "parse_transport_spec",
    "resolve_spec",
]
