"""Per-link linear communication cost model: ``t = θ · bytes + γ``.

This is the connection-level model of Sarvotham et al. (2001) that the
paper's minimax objective (Eqn. 10) assumes.  θ (seconds/byte) captures
inverse effective bandwidth; γ captures fixed per-transfer latency
(kernel launch, protocol handshake, host staging).

Default tiers approximate the paper's testbed *without* GPUDirect RDMA
(messages staged through host memory):

* intra-machine: PCIe-staged peer copies — tens of Gb/s effective;
* inter-machine: 100 Gbps Ethernet shared by the machine's four GPUs —
  a few Gb/s effective per concurrent pair, with higher latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.topology import ClusterTopology
from repro.utils.validation import check_positive

__all__ = ["LinkCostModel", "fit_linear_cost"]

# Default effective link parameters.  These are *scaled* versions of the
# paper's testbed: the synthetic datasets are ~500x smaller than the real
# ones, so effective bandwidths are scaled down by a similar factor to keep
# the workload in the same bandwidth-dominated regime (theta*bytes >> gamma
# for full-precision transfers, theta*bytes ~ gamma at 2-bit) and to keep
# epoch times at a paper-like magnitude.
INTRA_THETA = 1.0 / 10.0e6  # scaled intra-machine fabric
INTER_THETA = 1.0 / 2.5e6  # scaled cross-machine Ethernet share
INTRA_GAMMA = 3.0e-4
INTER_GAMMA = 1.5e-3


@dataclass(frozen=True)
class LinkCostModel:
    """Pairwise linear costs for one cluster topology.

    ``theta[s, d]`` / ``gamma[s, d]`` give the cost parameters of the
    directed link ``s → d``.  Diagonal entries are zero (loopback is free:
    a device never sends messages to itself in this system).
    """

    topology: ClusterTopology
    theta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        n = self.topology.num_devices
        if self.theta.shape != (n, n) or self.gamma.shape != (n, n):
            raise ValueError("theta/gamma must be (num_devices, num_devices)")
        if (self.theta < 0).any() or (self.gamma < 0).any():
            raise ValueError("cost parameters must be non-negative")

    @staticmethod
    def for_topology(
        topology: ClusterTopology,
        *,
        intra_theta: float = INTRA_THETA,
        inter_theta: float = INTER_THETA,
        intra_gamma: float = INTRA_GAMMA,
        inter_gamma: float = INTER_GAMMA,
    ) -> "LinkCostModel":
        """Build the two-tier model for an ``xM-yD`` topology."""
        check_positive(intra_theta, name="intra_theta")
        check_positive(inter_theta, name="inter_theta")
        n = topology.num_devices
        theta = np.full((n, n), inter_theta)
        gamma = np.full((n, n), inter_gamma)
        machines = np.array([topology.machine_of(d) for d in range(n)])
        same = machines[:, None] == machines[None, :]
        theta[same] = intra_theta
        gamma[same] = intra_gamma
        np.fill_diagonal(theta, 0.0)
        np.fill_diagonal(gamma, 0.0)
        return LinkCostModel(topology=topology, theta=theta, gamma=gamma)

    def time(self, src: int, dst: int, nbytes: float) -> float:
        """Transfer time of ``nbytes`` on link ``src → dst`` (0 for no data)."""
        if src == dst or nbytes <= 0:
            return 0.0
        return float(self.theta[src, dst] * nbytes + self.gamma[src, dst])

    def pair_parameters(self, src: int, dst: int) -> tuple[float, float]:
        """The (θ, γ) the bit-width assigner's time objective uses."""
        return float(self.theta[src, dst]), float(self.gamma[src, dst])


def fit_linear_cost(
    nbytes: np.ndarray, seconds: np.ndarray
) -> tuple[float, float]:
    """Least-squares fit of ``t = θ·b + γ`` from probe measurements.

    This mirrors how a real deployment would calibrate the cost model from
    ping-pong probes; the simulator uses it in tests to verify the model is
    recoverable and in the harness to fit measured byte/time pairs.

    Returns ``(theta, gamma)`` with ``gamma`` clamped at 0.
    """
    nbytes = np.asarray(nbytes, dtype=np.float64)
    seconds = np.asarray(seconds, dtype=np.float64)
    if nbytes.shape != seconds.shape or nbytes.ndim != 1:
        raise ValueError("nbytes and seconds must be equal-length 1-D arrays")
    if nbytes.size < 2:
        raise ValueError("need at least two probes to fit a line")
    design = np.stack([nbytes, np.ones_like(nbytes)], axis=1)
    (theta, gamma), *_ = np.linalg.lstsq(design, seconds, rcond=None)
    return float(max(theta, 0.0)), float(max(gamma, 0.0))
