"""Cluster topology: the paper's ``xM-yD`` partition settings.

``2M-2D`` means 2 machines × 2 devices = 4 partitions; devices
``[0, y)`` live on machine 0, ``[y, 2y)`` on machine 1, and so on.
Link tiers follow: device pairs on the same machine communicate over the
fast intra-machine fabric, pairs on different machines over Ethernet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["ClusterTopology", "parse_topology"]

_TOPOLOGY_RE = re.compile(r"^(\d+)M-(\d+)D$", re.IGNORECASE)


@dataclass(frozen=True)
class ClusterTopology:
    """``num_machines`` machines with ``devices_per_machine`` devices each."""

    num_machines: int
    devices_per_machine: int

    def __post_init__(self) -> None:
        if self.num_machines < 1 or self.devices_per_machine < 1:
            raise ValueError("topology dimensions must be >= 1")

    @property
    def num_devices(self) -> int:
        return self.num_machines * self.devices_per_machine

    def machine_of(self, device: int) -> int:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range")
        return device // self.devices_per_machine

    @property
    def name(self) -> str:
        return f"{self.num_machines}M-{self.devices_per_machine}D"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def parse_topology(spec: str) -> ClusterTopology:
    """Parse a paper-style setting name.

    >>> parse_topology("2M-2D").num_devices
    4
    """
    match = _TOPOLOGY_RE.match(spec.strip())
    if not match:
        raise ValueError(f"invalid topology spec {spec!r}; expected like '2M-2D'")
    return ClusterTopology(int(match.group(1)), int(match.group(2)))
