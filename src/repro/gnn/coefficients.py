"""Aggregation coefficients α_{u,v} and the weighted local operator.

The paper's analysis (Theorem 3) and the bit-width assigner both depend on
the aggregation coefficients: the variance a quantized message ``h_k``
injects is weighted by ``Σ_{v ∈ N_T(k)} α²_{k,v}`` — the squared
coefficients with which the *target* device aggregates that message.
:func:`build_aggregation` builds, per device:

* the weighted aggregation operator ``P`` with shape
  ``(n_owned, n_owned + n_halo)``; ``Z = P @ [H_own; H_halo]`` performs the
  layer's neighborhood aggregation (self-loop folded in for GCN).  Devices
  hold it split by column (:class:`~repro.graph.io.SplitOperators`);
* ``halo_alpha_sq`` — per halo column, ``Σ_v α²`` (exactly the weight the
  assigner needs for each incoming message).

Coefficients use **global** degrees, so the distributed aggregation is
numerically identical to single-machine full-graph aggregation — a
property the integration tests assert exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.partition.book import LocalPartition
from repro.utils.validation import check_array, check_in_set

__all__ = ["build_aggregation", "AGGREGATION_KINDS"]

AGGREGATION_KINDS = ("gcn", "sage", "sum")


def build_aggregation(
    part: LocalPartition,
    neighbors: sp.csr_matrix,
    global_degrees: np.ndarray,
    kind: str,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Build one partition's weighted aggregation operator.

    Returns ``(P, halo_alpha_sq)``: ``P`` float32 CSR of shape
    ``(n_owned, n_owned + n_halo)`` in the partition's local column order,
    canonical (each row's columns ascending, so its owned columns come
    before its halo columns), and the ``(n_halo,)`` float64 column sums of
    ``P``'s squared halo columns.

    Parameters
    ----------
    part:
        The device's :class:`LocalPartition` (its owned and halo ids).
    neighbors:
        The owned nodes' rows of the 0/1 adjacency, in **global** columns:
        ``(n_owned, num_nodes)``, row ``i`` for ``part.owned_global[i]``.
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

    n_owned, n_halo = part.n_owned, part.n_halo
    if neighbors.shape[0] != n_owned:
        raise ValueError(f"neighbors has {neighbors.shape[0]} rows, {n_owned} owned")
    row_local = np.repeat(np.arange(n_owned), np.diff(neighbors.indptr))
    row_global = part.owned_global[row_local]
    col_global = neighbors.indices
    # Global → local column: owned ids first, halo ids after, both ascending.
    to_local = np.empty(neighbors.shape[1], dtype=np.int64)
    to_local[part.owned_global] = np.arange(n_owned)
    to_local[part.halo_global] = np.arange(n_owned, n_owned + n_halo)
    col_local = to_local[col_global]

    if kind == "gcn":
        # α_{u,v} = 1/sqrt((d_u + 1)(d_v + 1)); self term appears as a
        # diagonal entry on the owned block.
        d_hat_row = global_degrees[row_global] + 1.0
        d_hat_col = global_degrees[col_global] + 1.0
        data = 1.0 / np.sqrt(d_hat_row * d_hat_col)
        diag_rows = np.arange(n_owned)
        diag_data = 1.0 / (global_degrees[part.owned_global] + 1.0)
        rows = np.concatenate([row_local, diag_rows])
        cols = np.concatenate([col_local, diag_rows])
        vals = np.concatenate([data, diag_data]).astype(np.float32)
    elif kind == "sage":
        # α_{u,v} = 1/d_v (mean over the full neighborhood, local + remote).
        deg_row = np.maximum(global_degrees[row_global], 1.0)
        vals = (1.0 / deg_row).astype(np.float32)
        rows, cols = row_local, col_local
    else:  # "sum"
        vals = np.ones(row_local.size, dtype=np.float32)
        rows, cols = row_local, col_local

    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_owned, n_owned + n_halo))
    matrix.sum_duplicates()

    squared = matrix.copy()
    squared.data = squared.data**2
    col_alpha_sq = np.asarray(squared.sum(axis=0)).ravel()
    return matrix, col_alpha_sq[n_owned:].astype(np.float64)
