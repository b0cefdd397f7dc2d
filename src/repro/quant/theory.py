"""The paper's variance theory (Theorems 1 and 3).

These formulas are what the Adaptive Bit-width Assigner optimizes over:

* Theorem 1 — de-quantized vector variance ``Var[ĥ] = D · S_b² / 6`` with
  ``S_b = (max - min) / (2^b - 1)``;
* Sec. 4.2 — per-message variance weight
  ``β_k = (Σ_{v ∈ N_T(k)} α²_{k,v}) · D_k · (max(h_k) - min(h_k))² / 6``,
  so a message quantized at ``b`` bits contributes ``β_k / (2^b - 1)²`` to
  the layer's gradient-variance bound (Eqn. 11);
* Theorem 3 — the layer bound ``Q_l`` assembled from those ingredients;
* Sec. 5 — the wire size of one bit-width group of a message,
  ``⌈n·D·b/8⌉ + 8n + 8`` bytes (packed codes, a float32 zero point and
  scale per row, a group header).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_array

__all__ = [
    "SUPPORTED_BITS",
    "quantization_variance",
    "beta_values",
    "variance_objective",
    "layer_variance_bound",
    "packed_bytes",
    "wire_bytes",
]

SUPPORTED_BITS: tuple[int, ...] = (2, 4, 8)


def packed_bytes(n_rows, dim, bits):
    """``⌈n·D·b/8⌉``: one group's codes packed ``8 / b`` to a byte, the
    stream starting on a byte boundary.  Works elementwise on arrays.

    >>> packed_bytes(3, 5, 2)
    4
    """
    return -(-n_rows * dim * bits // 8)


def wire_bytes(n_rows, dim, bits):
    """Bytes one ``b``-bit group of ``n`` rows × ``D`` occupies on the wire:
    the packed codes, 8 B per row (float32 zero point and scale) and an 8 B
    group header (width tag and row count).  Works elementwise on arrays.

    >>> wire_bytes(3, 5, 2)
    36
    """
    return packed_bytes(n_rows, dim, bits) + 8 * n_rows + 8


def quantization_variance(h: np.ndarray, bits: int) -> np.ndarray:
    """Theorem 1 variance per row: ``D · S_b² / 6``.

    >>> import numpy as np
    >>> h = np.array([[0.0, 1.0, 2.0, 3.0]])
    >>> float(quantization_variance(h, 2)[0])
    0.6666666666666666
    """
    h = np.asarray(h, dtype=np.float64)
    check_array(h, name="h", ndim=2)
    d = h.shape[1]
    value_range = h.max(axis=1) - h.min(axis=1)
    scale = value_range / (2**bits - 1)
    return d * scale**2 / 6.0


def beta_values(
    value_range: np.ndarray, dim: int, alpha_sq_sum: np.ndarray
) -> np.ndarray:
    """Sec. 4.2's β_k for a batch of messages.

    Parameters
    ----------
    value_range:
        ``max(h_k) - min(h_k)`` per message.
    dim:
        Message vector dimension ``D_k`` (shared within a layer).
    alpha_sq_sum:
        ``Σ_{v ∈ N_T(k)} α²_{k,v}`` — the sum of squared aggregation
        coefficients this message receives on the *target* device.
    """
    value_range = np.asarray(value_range, dtype=np.float64)
    alpha_sq_sum = np.asarray(alpha_sq_sum, dtype=np.float64)
    if value_range.shape != alpha_sq_sum.shape:
        raise ValueError("value_range and alpha_sq_sum must align")
    return alpha_sq_sum * dim * value_range**2 / 6.0


def variance_objective(beta: np.ndarray, bits: np.ndarray) -> float:
    """Eqn. 11's total variance for an assignment: ``Σ β_k / (2^{b_k} - 1)²``."""
    beta = np.asarray(beta, dtype=np.float64)
    bits = np.asarray(bits, dtype=np.float64)
    if beta.shape != bits.shape:
        raise ValueError("beta and bits must align")
    return float((beta / (2.0**bits - 1.0) ** 2).sum())


def layer_variance_bound(
    beta_fwd: np.ndarray,
    bits_fwd: np.ndarray,
    beta_bwd: np.ndarray,
    bits_bwd: np.ndarray,
    *,
    m_bound: float = 1.0,
    n_bound: float = 1.0,
) -> float:
    """Theorem 3's ``Q_l`` (up to the paper's M/N constants).

    The three terms: the forward×backward product term, the forward term
    scaled by ``N²`` (gradient-norm bound) and the backward term scaled by
    ``M²`` (activation-norm bound).  Exact constants do not matter for the
    assigner — only relative magnitudes drive the optimization — but the
    full form is exposed for the theory tests and the benchmarks.
    """
    fwd = variance_objective(beta_fwd, bits_fwd)
    bwd = variance_objective(beta_bwd, bits_bwd)
    return fwd * bwd + n_bound**2 * fwd + m_bound**2 * bwd
