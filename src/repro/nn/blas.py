"""Row-deterministic GEMM: per-row results independent of batch size.

OpenBLAS (numpy's default backend) routes ``sgemm`` through a dedicated
small-matrix kernel whenever ``M * N * K`` falls under a fixed threshold
(~100^3).  That kernel accumulates the K dimension in a different order
than the standard blocked kernel, so the *same input row* can produce
bitwise-different output depending on how many other rows share the call.
This breaks the cluster-fused compute engine's core contract: one stacked
GEMM over all devices' rows must equal the per-device GEMMs it replaces,
bit for bit.

:func:`row_matmul` restores row determinism by zero-padding the row
dimension past the small-kernel threshold, forcing every call — a
4-million-row stacked step or a 40-row single device — through the same
standard kernel, whose per-row results depend only on that row and the
shared operand.  Padding costs at most ~2 MFLOP per call — free for the
fused engine's stacked calls (which are big enough to never pad) but a
real multiple of the raw BLAS time for tiny per-device batches
(~30µs vs ~3µs for a 64×32 @ 32×32 call).  That overhead is the price of
the stacked ≡ per-device bitwise-equality contract; perf-sensitive
callers that don't need cross-batch-size determinism should use ``@``.

Both the per-device layers (:class:`repro.nn.layers.Linear`) and the
fused engine (:mod:`repro.cluster.compute`) route row-batched products
through this helper; products whose shapes are identical on both paths
(e.g. weight-gradient ``x.T @ d``) don't need it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_matmul"]

#: Shapes with ``M * N * K`` at or under this use OpenBLAS's small-matrix
#: kernel (empirical boundary ~1e6, i.e. the documented 100^3 heuristic);
#: a safety margin covers rounding in the backend's float comparison.
_SMALL_MNK = 1_100_000

# Reusable pads keyed by (rows, cols).  Rows past the current input may
# hold residue from earlier (larger) calls; that is harmless because GEMM
# output row i depends only on input row i, and rows past m are discarded.
_pad_cache: dict[tuple[int, int], np.ndarray] = {}


def row_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b`` with per-row results independent of ``a``'s row count.

    Parameters
    ----------
    a:
        ``(m, k)`` float array; rows may be a contiguous view into a larger
        stacked buffer.
    b:
        ``(k, n)`` shared operand (a transposed view is fine).
    out:
        Optional ``(m, n)`` destination (written in place and returned).
    """
    m, k = a.shape
    n = b.shape[1]
    if m == 0 or m * n * k > _SMALL_MNK:
        if out is not None:
            np.matmul(a, b, out=out)
            return out
        return a @ b

    m_pad = _SMALL_MNK // max(n * k, 1) + 1
    key = (m_pad, k)
    pad = _pad_cache.get(key)
    if pad is None or pad.dtype != a.dtype:
        pad = np.zeros((m_pad, k), dtype=a.dtype)
        _pad_cache[key] = pad
    pad[:m] = a
    full = pad @ b
    if out is not None:
        out[...] = full[:m]
        return out
    return np.ascontiguousarray(full[:m])
