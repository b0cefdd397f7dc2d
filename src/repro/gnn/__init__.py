"""GNN layers over partitioned graphs.

Implements the paper's Eqn. 3 form — ``h_v = σ(W · Σ α_{u,v} h_u)`` — for
the two evaluated models:

* **GCN** (Kipf & Welling): symmetric normalization
  ``α_{u,v} = 1/√((d_u+1)(d_v+1))`` including the self term;
* **GraphSAGE** (mean): root weight plus mean-aggregated neighbors,
  ``α_{u,v} = 1/d_v``.

The distributed aggregation operates on a local adjacency whose columns
span owned ∪ halo nodes; forward consumes halo *features/embeddings* and
backward emits halo *embedding gradients* — the two message classes AdaQP
quantizes.
"""

from repro.gnn.coefficients import build_aggregation
from repro.gnn.conv import GCNConv, SAGEConv
from repro.gnn.model import MODEL_KINDS, DistGNN, GNNLayer

__all__ = [
    "build_aggregation",
    "GCNConv",
    "SAGEConv",
    "DistGNN",
    "GNNLayer",
    "MODEL_KINDS",
]
