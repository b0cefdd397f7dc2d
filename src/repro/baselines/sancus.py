"""SANCUS-style exchange: broadcast skipping with historical embeddings.

SANCUS (Peng et al., VLDB 2022) is "staleness-aware communication-avoiding"
training: devices re-broadcast their embedding blocks only periodically
(subject to a staleness bound) and peers otherwise compute with historical
embeddings.  The reproduction captures the three behaviours the paper
reports:

* skipped broadcasts → zero bytes on the wire for that layer that epoch
  (historical embeddings serve reads);
* stale embeddings plus locally-truncated gradients → slower convergence
  and accuracy degradation (paper Fig. 9 / Table 4);
* sequential *full-partition* broadcasts → communication slower than
  boundary-only ring all2all even with skipping (paper Sec. 5.1: SANCUS
  often loses to Vanilla), modelled by
  :func:`repro.core.scheduler.schedule_sancus`.

SANCUS replicates whole partition embedding blocks (its decentralized
caches hold peers' partitions), so a broadcast ships ``n_owned × d``
floats — not just boundary rows; and it pushes no backward messages, so
halo gradients are dropped — the source of its gradient bias.
"""

from __future__ import annotations

from repro.cluster.exchange import FusedQuantizedHaloExchange

__all__ = ["BroadcastSkipExchange"]


class BroadcastSkipExchange(FusedQuantizedHaloExchange):
    """Full-block embedding broadcasts under a bounded-staleness skip rule:
    the fused exchange with broadcast geometry and ``period=staleness_bound``.

    A device re-broadcasts a layer's embeddings every ``staleness_bound``
    epochs; in between, peers use the last blocks they got (staleness up
    to ``staleness_bound - 1`` epochs).  1 broadcasts every epoch.
    """

    def __init__(self, staleness_bound: int = 4) -> None:
        if staleness_bound < 1:
            raise ValueError("staleness_bound must be >= 1")
        super().__init__(None, None, period=staleness_bound, broadcast=True)
