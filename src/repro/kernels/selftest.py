"""The loader's self-tests: one per kernel family of ``_kernels.c``.

Each runs its compiled kernels on a small fixed case and compares the bytes
with the reference code the kernels replace — the quantization kernels
with :mod:`repro.quant.fused`'s NumPy kernels, the CSR product with scipy's
``csr_matvecs``, the post stage with :class:`~repro.nn.layers.LayerNorm`
and the ReLU and dropout multiplies.  :func:`repro.kernels.load` keeps the
library only if every one of :data:`FAMILIES` agrees.  They call the
kernels directly — never :func:`repro.kernels.load`, which is what is
running them.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from repro.nn.layers import LayerNorm
from repro.quant.fused import (
    FusedStepEncoder,
    _decode_index_native,
    _decode_index_numpy,
    decode_index,
)
from repro.quant.stochastic import KeyedRounding

__all__ = ["FAMILIES", "quantize_agrees", "csr_agrees", "post_agrees"]


def quantize_agrees(lib) -> bool:
    """The quantization family: a small fixed step through both tiers.

    Three pairs of a ragged width with mixed bit-widths (so payload order
    is not cat order, payloads have several groups and rows share bytes),
    a constant row and a 1-bit group: the compiled quantizer must
    reproduce the NumPy kernel's wire bytes, zero points and scales (over
    a wire buffer it finds full of ones); the compiled decode its NumPy
    mirror's rows through each receiver's
    :class:`~repro.quant.fused.DecodeIndex` (halo rows, an accumulation
    block); the compiled accumulate the per-pair adds.
    """
    dim, counts = 19, np.array([5, 3, 4], dtype=np.int64)
    bits = np.array([2, 8, 4, 2, 1, 4, 4, 4, 8, 2, 8, 2], dtype=np.int64)
    n = int(counts.sum())
    rows = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    rows[1] = 0.25
    pairs = [(0, 1), (0, 2), (1, 2)]
    rounding = KeyedRounding(0)
    encoder = FusedStepEncoder(rounding)
    plan = encoder.plan_for(
        None, pairs, counts, [(0, 0, n)], np.arange(n, dtype=np.int64), bits, dim
    )
    encoder.gather_step(plan, {0: rows})
    (shard,) = encoder.shards_for(plan, 1)
    keys = rounding.block_keys("fwd", 0, plan.pair_src, plan.pair_dst)
    encoder._pack_numpy(plan, shard, encoder._quantize_numpy(plan, shard, keys))
    want = [plan.wire.copy(), plan.zero_points.copy(), plan.scales.copy()]
    plan.wire.fill(0xFF)
    encoder._quantize_pack_native(lib, plan, shard, keys)
    if not (
        plan.wire.tobytes() == want[0].tobytes()
        and np.array_equal(plan.zero_points, want[1])
        and np.array_equal(plan.scales, want[2])
    ):
        return False
    # Both receivers through their indices — receiver 1's halo rows
    # directly, receiver 2's two pairs into a block — against the NumPy
    # mirror; then receiver 2's block accumulated twice into rows where its
    # two sources overlap.
    indices = {
        1: decode_index(plan, 1, {0: [3, 0, 4, 1, 2]}, 5),
        2: decode_index(plan, 2, {0: [4, 0, 2], 1: [1, 2, 3, 4]}, 5, accumulate=True),
    }
    got = {}
    for d, index in indices.items():
        got[d] = index, np.full(index.shape, np.nan, dtype=np.float32)
        want = got[d][1].copy()
        _decode_index_native(lib, *got[d])
        _decode_index_numpy(index, want)
        if got[d][1].tobytes() != want.tobytes():
            return False
    index, block = got[2]
    got_sum, want_sum = np.ones((2, 5, dim), dtype=np.float32)
    lib.repro_add_rows(
        block.ctypes.data,
        len(block),
        dim,
        index.add_rows.ctypes.data,
        got_sum.ctypes.data,
    )
    for src in index.srcs:
        want_sum[index.rows[src]] += block[index.land[src]]
    return got_sum.tobytes() == want_sum.tobytes()


def csr_agrees(lib) -> bool:
    """The CSR family: ``repro_csr_rows`` against scipy's ``csr_matvecs`` on
    a small operator with an empty row and unsorted, repeated columns, at a
    narrow and a wide width, overwriting and accumulating, over every row
    and over row ranges passed as ``indptr`` slices."""
    gen = np.random.default_rng(1)
    indptr = np.array([0, 3, 3, 4, 8, 10], dtype=np.int32)
    indices = np.array([2, 0, 2, 1, 6, 3, 0, 3, 5, 4], dtype=np.int32)
    data = gen.normal(size=10).astype(np.float32)
    for width in (5, 19):
        x = gen.normal(size=(7, width)).astype(np.float32)
        for lo, hi, accumulate in ((0, 5, 0), (0, 5, 1), (2, 5, 1), (1, 4, 0)):
            got = gen.normal(size=(hi - lo, width)).astype(np.float32)
            want = got.copy() if accumulate else np.zeros_like(got)
            rows = indptr[lo : hi + 1]
            lib.repro_csr_rows(
                hi - lo,
                rows.ctypes.data,
                indices.ctypes.data,
                data.ctypes.data,
                x.ctypes.data,
                width,
                got.ctypes.data,
                accumulate,
            )
            csr_matvecs(hi - lo, 7, width, rows, indices, data, x.ravel(), want.ravel())
            if got.tobytes() != want.tobytes():
                return False
    return True


def post_agrees(lib) -> bool:
    """The post-stage family: ``repro_post_forward`` /
    ``repro_post_backward`` against :class:`~repro.nn.layers.LayerNorm`'s
    ``forward_into`` and ``input_grad``, the ReLU and dropout multiplies and
    per-block ``sum(axis=0)`` partials — at a ragged width, with a
    zero-variance row and an empty block, dropout off and on."""
    gen = np.random.default_rng(2)
    n, dim = 7, 19
    norm = LayerNorm(dim)
    norm.gamma.data[...] = gen.normal(size=dim)
    norm.beta.data[...] = gen.normal(size=dim)
    bounds = np.array([0, 3, 3, n], dtype=np.int64)
    halved = (gen.random((n, dim)) < 0.5).astype(np.float32) / np.float32(0.5)
    for drop in (None, halved):
        x = gen.normal(size=(n, dim)).astype(np.float32)
        x[2] = 1.5
        h, x_hat, want_hat = x.copy(), np.empty_like(x), np.empty_like(x)
        inv_std, mask = np.empty((n, 1), np.float32), np.empty((n, dim), bool)
        want_inv = norm.forward_into(x, want_hat)
        want_mask = x > 0
        x *= want_mask
        if drop is not None:
            x *= drop
        drop_ptr = None if drop is None else drop.ctypes.data
        lib.repro_post_forward(
            n,
            dim,
            h.ctypes.data,
            norm.gamma.data.ctypes.data,
            norm.beta.data.ctypes.data,
            norm.eps,
            drop_ptr,
            x_hat.ctypes.data,
            inv_std.ctypes.data,
            mask.ctypes.data,
        )
        got, want = (h, x_hat, inv_std, mask), (x, want_hat, want_inv, want_mask)
        if [a.tobytes() for a in got] != [b.tobytes() for b in want]:
            return False
        d = gen.normal(size=(n, dim)).astype(np.float32)
        g, partials = d.copy(), np.full((3, 2, dim), np.nan, np.float32)
        if drop is not None:
            d *= drop
        d *= want_mask
        want = [
            [(d * want_hat)[lo:hi].sum(axis=0), d[lo:hi].sum(axis=0)]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        want_grad = norm.input_grad(d, want_hat, want_inv)
        lib.repro_post_backward(
            dim,
            g.ctypes.data,
            x_hat.ctypes.data,
            inv_std.ctypes.data,
            mask.ctypes.data,
            drop_ptr,
            norm.gamma.data.ctypes.data,
            bounds.ctypes.data,
            3,
            partials.ctypes.data,
        )
        if g.tobytes() != want_grad.tobytes():
            return False
        if partials.tobytes() != np.array(want, dtype=np.float32).tobytes():
            return False
    return True


#: Every family, in the order the loader runs them.
FAMILIES = (quantize_agrees, csr_agrees, post_agrees)
