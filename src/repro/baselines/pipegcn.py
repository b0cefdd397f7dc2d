"""PipeGCN-style exchange: epoch-stale boundary features and gradients.

PipeGCN (Wan et al., MLSys 2022) hides communication inside computation by
consuming the halo messages *sent during the previous epoch* while the
current epoch's messages travel.  Two consequences the paper leans on:

* throughput: communication fully overlaps computation (modelled by
  :func:`repro.core.scheduler.schedule_pipegcn`), which wins only when the
  graph is dense enough for compute to cover comm (paper Sec. 5.1's Reddit
  discussion);
* convergence: one-epoch-stale embeddings/gradients slow convergence
  (paper Fig. 9; O(T^{-2/3}) vs O(T^{-1})).
"""

from __future__ import annotations

from repro.cluster.exchange import FusedQuantizedHaloExchange

__all__ = ["StaleHaloExchange"]


class StaleHaloExchange(FusedQuantizedHaloExchange):
    """Full-precision transfers served one step late: the fused exchange
    with ``lag=1``.  Every step stages and sends its rows, and lands the
    previous step's; the warm-up epoch lands its own."""

    def __init__(self) -> None:
        super().__init__(None, None, lag=1)
