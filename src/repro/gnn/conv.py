"""Graph convolution layers: the parameters of Eqn. 3 and its operand order.

A conv holds its ``Linear``s and nothing per device: the cluster's fused
compute engine (:mod:`repro.cluster.compute`) aggregates every device's
rows with one operator and transforms them with these weights.  Its
per-device forward/backward — the halo part of the input gradient is
exactly the "embedding gradients (errors)" the paper quantizes and routes
back to owners — is stated by the reference model under
``tests/reference/``.

**Operand order.**  Eqn. 3 is ``σ(P·H·W)`` and matrix products associate:
``(P·H̃)·W`` runs the sparse product at the layer's *input* width,
``P·(H̃·W)`` at its *output* width — ``nnz·d_in`` multiply-adds against
``nnz·d_out``.  :func:`transform_first` is the one rule that picks the
order, from the layer's shape and nothing else; :class:`GCNConv` records
it and the engine and the reference model both read it from the conv, so
they switch together (which is what keeps them bitwise-comparable).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = ["GCNConv", "SAGEConv", "transform_first"]


def transform_first(in_features: int, out_features: int) -> bool:
    """Whether a GCN layer of this shape applies ``W`` before aggregating.

    The sparse product costs ``nnz × width``; transforming first makes that
    width ``out_features`` instead of ``in_features`` at the price of
    running the dense transform over the halo rows too, so it pays exactly
    when the layer narrows (DGL's ``GraphConv`` applies the same test).
    """
    return out_features < in_features


class GCNConv(Module):
    """GCN layer: ``out = P @ [x_own; x_halo] @ W + b``.

    ``P`` carries the symmetric normalization including the self loop, so a
    single sparse-dense product realizes Eqn. 3.  A narrowing layer
    (:func:`transform_first`) evaluates ``P @ (x̃ @ W)``, any other
    ``(P @ x̃) @ W``; the bias is added after aggregation in both orders.
    The halo exchange is the same either way — ``in_features``-wide rows
    in, ``in_features``-wide gradients out — only the order in which the
    receiver applies ``P`` and ``W`` to them differs.
    """

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, rng)
        self.transform_first = transform_first(in_features, out_features)


class SAGEConv(Module):
    """GraphSAGE (mean): ``out = x_own @ W_root + (P @ x_full) @ W_neigh + b``.

    ``P`` is the neighbor-mean operator; the root term keeps the node's own
    representation at full precision (it never crosses devices).
    """

    #: The neighbour term always aggregates first (see :func:`transform_first`).
    transform_first = False

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.root = Linear(in_features, out_features, rng, bias=True)
        self.neigh = Linear(in_features, out_features, rng, bias=False)
