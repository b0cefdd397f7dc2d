"""Aggregation coefficients α_{u,v} and the weighted local adjacency.

The paper's analysis (Theorem 3) and the bit-width assigner both depend on
the aggregation coefficients: the variance a quantized message ``h_k``
injects is weighted by ``Σ_{v ∈ N_T(k)} α²_{k,v}`` — the squared
coefficients with which the *target* device aggregates that message.  This
module builds, per device:

* ``matrix`` — the weighted aggregation operator ``P`` with shape
  ``(n_owned, n_owned + n_halo)``; ``Z = P @ [H_own; H_halo]`` performs the
  layer's neighborhood aggregation (self-loop folded in for GCN);
* ``halo_alpha_sq`` — per halo column, ``Σ_v α²`` (exactly the weight the
  assigner needs for each incoming message).

Coefficients use **global** degrees, so the distributed aggregation is
numerically identical to single-machine full-graph aggregation — a
property the integration tests assert exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.partition.book import LocalPartition
from repro.utils.validation import check_array, check_in_set

__all__ = ["AggregationContext", "build_aggregation", "AGGREGATION_KINDS"]

AGGREGATION_KINDS = ("gcn", "sage", "sum")


@dataclass
class AggregationContext:
    """Weighted aggregation operator and derived statistics for one device."""

    kind: str
    matrix: sp.csr_matrix  # (n_owned, n_owned + n_halo)
    halo_alpha_sq: np.ndarray  # (n_halo,) Σ_v α²_{k,v} per halo column
    n_owned: int
    n_halo: int

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def nnz_for_rows(self, row_mask: np.ndarray) -> int:
        """Aggregation nonzeros attributable to the masked rows (for FLOPs)."""
        if row_mask.shape != (self.n_owned,):
            raise ValueError("row_mask must cover owned rows")
        row_nnz = np.diff(self.matrix.indptr)
        return int(row_nnz[row_mask].sum())


def build_aggregation(
    part: LocalPartition, global_degrees: np.ndarray, kind: str
) -> AggregationContext:
    """Build the weighted aggregation operator for one partition.

    Parameters
    ----------
    part:
        The device's :class:`LocalPartition` (raw 0/1 adjacency).
    global_degrees:
        Degrees in the *full* graph (so coefficients match single-machine
        training exactly).
    kind:
        ``"gcn"`` — symmetric normalization with self-loop;
        ``"sage"`` — mean over neighbors (no self term; the SAGE root
        weight handles self separately);
        ``"sum"`` — raw summation (for tests/ablations).
    """
    check_in_set(kind, AGGREGATION_KINDS, name="kind")
    check_array(global_degrees, name="global_degrees", ndim=1)

    n_owned, n_cols = part.adj.shape
    coo = part.adj.tocoo()
    row_global = part.owned_global[coo.row]
    col_local = coo.col
    col_global = np.where(
        col_local < n_owned,
        part.owned_global[np.minimum(col_local, n_owned - 1)],
        part.halo_global[np.maximum(col_local - n_owned, 0)]
        if part.n_halo
        else 0,
    )

    if kind == "gcn":
        # α_{u,v} = 1/sqrt((d_u + 1)(d_v + 1)); self term appears as a
        # diagonal entry on the owned block.
        d_hat_row = global_degrees[row_global] + 1.0
        d_hat_col = global_degrees[col_global] + 1.0
        data = 1.0 / np.sqrt(d_hat_row * d_hat_col)
        diag_rows = np.arange(n_owned)
        diag_data = 1.0 / (global_degrees[part.owned_global] + 1.0)
        rows = np.concatenate([coo.row, diag_rows])
        cols = np.concatenate([col_local, diag_rows])
        vals = np.concatenate([data, diag_data]).astype(np.float32)
    elif kind == "sage":
        # α_{u,v} = 1/d_v (mean over the full neighborhood, local + remote).
        deg_row = np.maximum(global_degrees[row_global], 1.0)
        vals = (1.0 / deg_row).astype(np.float32)
        rows, cols = coo.row, col_local
    else:  # "sum"
        vals = np.ones(coo.row.size, dtype=np.float32)
        rows, cols = coo.row, col_local

    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_owned, n_cols))
    matrix.sum_duplicates()

    squared = matrix.copy()
    squared.data = squared.data**2
    col_alpha_sq = np.asarray(squared.sum(axis=0)).ravel()
    halo_alpha_sq = col_alpha_sq[n_owned:].astype(np.float64)

    return AggregationContext(
        kind=kind,
        matrix=matrix,
        halo_alpha_sq=halo_alpha_sq,
        n_owned=n_owned,
        n_halo=part.n_halo,
    )
