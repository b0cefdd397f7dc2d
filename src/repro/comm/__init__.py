"""Communication substrate for the simulated cluster.

The paper's testbed — multiple machines with several GPUs each, 100 Gbps
Ethernet between machines — is modelled by:

* :class:`ClusterTopology` — the ``xM-yD`` device layout;
* :class:`LinkCostModel` — per-device-pair linear cost ``t = θ·bytes + γ``
  (Sarvotham et al., the cost model the paper's Eqn. 10 uses), with
  distinct intra-/inter-machine tiers and least-squares calibration;
* :mod:`repro.comm.ring` — the ring all2all schedule (paper Fig. 8) with
  per-round straggler barriers (SANCUS's sequential broadcast is priced
  in :func:`~repro.core.scheduler.schedule_sancus`);
* :mod:`repro.comm.allreduce` — the ring-allreduce time model of the
  model-gradient reduction (the engine reduces exactly, in float64 rank
  order);
* :class:`Transport` — the in-memory mailbox that routes *real* message
  payloads between simulated devices and counts every byte; its deferred
  jobs run inline (``workers=0``) or on a pool of worker threads.
  :func:`transport_workers` resolves the ``auto | sync | worker[:N]``
  spec to that worker count.
"""

from repro.comm.topology import ClusterTopology, parse_topology
from repro.comm.costmodel import LinkCostModel, fit_linear_cost
from repro.comm.ring import ring_all2all_time, ring_rounds
from repro.comm.allreduce import ring_allreduce_time
from repro.comm.transport import Transport, transport_workers

__all__ = [
    "ClusterTopology",
    "parse_topology",
    "LinkCostModel",
    "fit_linear_cost",
    "ring_rounds",
    "ring_all2all_time",
    "ring_allreduce_time",
    "Transport",
    "transport_workers",
]
