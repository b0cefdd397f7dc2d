"""Partition bookkeeping: ownership, halos and per-peer exchange maps.

Terminology (paper Sec. 3.1):

* **owned** nodes of partition ``p`` — nodes assigned to device ``p``;
* **halo** nodes — remote 1-hop neighbors of owned nodes (the paper's
  "remote nodes"); their features/embeddings must be fetched every layer;
* **marginal** nodes — owned nodes with at least one remote neighbor;
* **central** nodes — owned nodes whose entire neighborhood is local.

Local column convention: partition ``p``'s aggregation operator has shape
``(n_owned, n_owned + n_halo)``; columns ``0..n_owned-1`` are owned nodes
(in ascending global-id order) and columns ``n_owned..`` are halo nodes
(ascending global-id order).  Send/receive maps are *aligned*: peer ``q``'s
``recv_map[p]`` lists halo slots in the same node order as ``p``'s
``send_map[q]`` lists owned rows, so a gathered send buffer can be scattered
directly on the receiving side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.utils.validation import check_array

__all__ = ["PartitionBook", "LocalPartition", "build_local_partitions"]


@dataclass(frozen=True)
class PartitionBook:
    """Global node → partition assignment.

    Parameters
    ----------
    part_of:
        ``(num_nodes,)`` integer array; ``part_of[v]`` is the partition id
        owning node ``v``.
    num_parts:
        Total number of partitions; every id in ``0..num_parts-1`` must own
        at least one node.
    """

    part_of: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        check_array(self.part_of, name="part_of", ndim=1, dtype_kind="iu")
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        if self.part_of.size == 0:
            raise ValueError("part_of must not be empty")
        if self.part_of.min() < 0 or self.part_of.max() >= self.num_parts:
            raise ValueError("part ids out of range")
        sizes = np.bincount(self.part_of, minlength=self.num_parts)
        if (sizes == 0).any():
            empty = np.flatnonzero(sizes == 0).tolist()
            raise ValueError(f"partitions {empty} own no nodes")

    @property
    def num_nodes(self) -> int:
        return int(self.part_of.size)

    def owned(self, part: int) -> np.ndarray:
        """Global ids owned by ``part``, ascending."""
        return np.flatnonzero(self.part_of == part).astype(np.int64)

    def sizes(self) -> np.ndarray:
        """Number of owned nodes per partition."""
        return np.bincount(self.part_of, minlength=self.num_parts)


@dataclass
class LocalPartition:
    """Everything device ``part_id`` needs about its share of the graph."""

    part_id: int
    num_parts: int
    owned_global: np.ndarray  # (n_owned,) int64, ascending
    halo_global: np.ndarray  # (n_halo,) int64, ascending
    halo_owner: np.ndarray  # (n_halo,) int32
    send_map: dict[int, np.ndarray] = field(default_factory=dict)
    recv_map: dict[int, np.ndarray] = field(default_factory=dict)
    marginal_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def n_owned(self) -> int:
        return int(self.owned_global.size)

    @property
    def n_halo(self) -> int:
        return int(self.halo_global.size)

    @property
    def n_marginal(self) -> int:
        return int(self.marginal_mask.sum())

    @property
    def n_central(self) -> int:
        return self.n_owned - self.n_marginal

    @property
    def central_mask(self) -> np.ndarray:
        return ~self.marginal_mask

    def peers_out(self) -> list[int]:
        """Peers this partition sends boundary-node data to."""
        return sorted(self.send_map.keys())

    def peers_in(self) -> list[int]:
        """Peers this partition receives halo data from."""
        return sorted(self.recv_map.keys())

    def validate(self) -> None:
        """Check internal invariants; raises ``AssertionError`` on violation."""
        assert np.all(np.diff(self.owned_global) > 0), "owned ids must be strictly sorted"
        if self.n_halo:
            assert np.all(np.diff(self.halo_global) > 0), "halo ids must be strictly sorted"
            assert not np.isin(self.halo_global, self.owned_global).any()
            assert (self.halo_owner != self.part_id).all()
        covered = np.zeros(self.n_halo, dtype=int)
        for peer, slots in self.recv_map.items():
            assert peer != self.part_id
            covered[slots] += 1
        assert (covered == 1).all(), "each halo slot must be fed by exactly one peer"
        assert self.marginal_mask.shape == (self.n_owned,)


def build_local_partitions(graph: Graph, book: PartitionBook) -> list[LocalPartition]:
    """Decompose ``graph`` according to ``book`` into per-device structures.

    The construction is two-pass: first each partition derives its halo and
    receive maps independently; then send maps are resolved by matching each
    receiver's halo segment against the owner's node list (order-preserving,
    so send and receive buffers align element-for-element).
    """
    if book.num_nodes != graph.num_nodes:
        raise ValueError(
            f"partition book covers {book.num_nodes} nodes, graph has {graph.num_nodes}"
        )
    part_of = book.part_of
    adj_global = graph.to_scipy(dtype=np.float32)

    parts: list[LocalPartition] = []
    for p in range(book.num_parts):
        owned = book.owned(p)
        n_owned = owned.size
        rows = adj_global[owned]  # (n_owned, n) CSR slice
        remote_mask = part_of[rows.indices] != p

        halo_global = np.unique(rows.indices[remote_mask].astype(np.int64))
        halo_owner = part_of[halo_global].astype(np.int32)

        # Marginal nodes: rows with >= 1 remote neighbor.  ``reduceat`` is
        # unusable with empty trailing rows (offsets == nnz are rejected),
        # so accumulate per-row remote counts with bincount on row ids.
        row_nnz = np.diff(rows.indptr)
        row_of_entry = np.repeat(np.arange(n_owned), row_nnz)
        remote_per_row = np.bincount(
            row_of_entry, weights=remote_mask.astype(np.float64), minlength=n_owned
        )
        marginal_mask = remote_per_row > 0

        recv_map: dict[int, np.ndarray] = {}
        for q in np.unique(halo_owner):
            recv_map[int(q)] = np.flatnonzero(halo_owner == q).astype(np.int64)

        parts.append(
            LocalPartition(
                part_id=p,
                num_parts=book.num_parts,
                owned_global=owned,
                halo_global=halo_global,
                halo_owner=halo_owner,
                recv_map=recv_map,
                marginal_mask=marginal_mask,
            )
        )

    # Second pass: derive send maps from every receiver's halo segments.
    for q_part in parts:
        for p, slots in q_part.recv_map.items():
            wanted_global = q_part.halo_global[slots]
            owner = parts[p]
            local_rows = np.searchsorted(owner.owned_global, wanted_global)
            if not np.array_equal(owner.owned_global[local_rows], wanted_global):
                raise AssertionError("send-map resolution hit a non-owned node")
            owner.send_map[q_part.part_id] = local_rows.astype(np.int64)

    for part in parts:
        part.validate()
    return parts
