"""Ring-allreduce time model for the model-gradient reduction.

The paper deliberately does *not* compress model gradients (they are tiny
next to messages — its footnote 1 quantifies this), so the engine reduces
them exactly (float64, rank order; see
:meth:`~repro.cluster.compute.FusedClusterCompute.reduce_gradients`).
Timing uses the standard ring-allreduce cost: ``2 (N-1)/N · bytes`` cross
the slowest link, plus ``2 (N-1)`` latency terms.
"""

from __future__ import annotations

import numpy as np

from repro.comm.costmodel import LinkCostModel

__all__ = ["ring_allreduce_time"]


def ring_allreduce_time(nbytes: int, cost: LinkCostModel) -> float:
    """Ring allreduce wall time for ``nbytes`` of gradient data.

    Uses the slowest link's θ (the ring necessarily crosses it) and the
    canonical ``2 (N-1)/N`` volume factor.
    """
    n = cost.topology.num_devices
    if n == 1 or nbytes <= 0:
        return 0.0
    off_diag = ~np.eye(n, dtype=bool)
    theta_worst = float(cost.theta[off_diag].max())
    gamma_worst = float(cost.gamma[off_diag].max())
    volume_factor = 2.0 * (n - 1) / n
    return volume_factor * nbytes * theta_worst + 2.0 * (n - 1) * gamma_worst
