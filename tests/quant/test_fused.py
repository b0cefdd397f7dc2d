"""Encoder-level equivalence: the step-fused encoder emits, pair for pair,
the bytes of the per-message reference encoder (``reference/wire.py``) —
laid out in the plan's wire buffer as the byte formula says, and held
there until the plan's next encode."""

import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.wire import MixedPrecisionEncoder, decode
from step_encoding import encode_step, quantize_pack

from repro.quant.fused import (
    DecodeWorkspace,
    FusedStepEncoder,
    decode_cluster_step,
    decode_index,
    pair_shard,
)
from repro.quant.stochastic import KeyedRounding
from repro.quant.theory import packed_bytes, wire_bytes


def decode_step(plan):
    """Every receiver of ``plan`` landed through its :class:`DecodeIndex`,
    its sources' rows in order in one halo buffer: ``{(src, dst): rows}``."""
    landed = {}
    for dst in sorted({d for _, d in plan.pairs}):
        srcs = sorted(s for s, d in plan.pairs if d == dst)
        counts = [int(plan.pair_counts[plan.pairs.index((s, dst))]) for s in srcs]
        cuts = np.cumsum([0, *counts])
        rows = {s: np.arange(a, b) for s, a, b in zip(srcs, cuts, cuts[1:])}
        index = decode_index(plan, dst, rows, int(cuts[-1]))
        buf = np.full(index.shape, np.nan, dtype=np.float32)
        decode_cluster_step(index, buf)
        landed.update({(s, dst): buf[index.land[s]] for s in srcs})
    return landed


def _step(seed, n_pairs=5, rows=37, dim=9, bit_choices=(2, 4, 8)):
    gen = np.random.default_rng(seed)
    n = n_pairs * rows
    values = gen.normal(size=(300, dim)).astype(np.float32)
    cat_idx = gen.integers(0, values.shape[0], n)
    bits_cat = gen.choice(bit_choices, size=n)
    pairs = [(0, q + 1) for q in range(n_pairs)]
    counts = np.full(n_pairs, rows, dtype=np.int64)
    return values, pairs, counts, cat_idx, bits_cat, dim


def _encode_both(seed, *, pairs=None, **kw):
    """The step's payloads from the per-message reference encoder and from
    the fused one, and the fused one's plan."""
    values, default_pairs, counts, cat_idx, bits_cat, dim = _step(seed, **kw)
    pairs = pairs or default_pairs
    legacy_enc = MixedPrecisionEncoder(KeyedRounding(seed + 99))
    fused_enc = FusedStepEncoder(KeyedRounding(seed + 99))

    n = int(counts.sum())
    plan = fused_enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    fused_payloads = encode_step(fused_enc, plan, {0: values}, coords=("fwd", 0))

    bounds = np.concatenate([[0], np.cumsum(counts)])
    legacy_payloads = {}
    for i, pair in enumerate(pairs):
        sel = cat_idx[bounds[i] : bounds[i + 1]]
        legacy_payloads[pair] = legacy_enc.encode(
            values[sel], bits_cat[bounds[i] : bounds[i + 1]], block=("fwd", 0, *pair)
        )
    return legacy_payloads, fused_payloads, plan


@pytest.mark.parametrize("chunk_rows", [4096, 40])
@pytest.mark.parametrize("bit_choices", [(2, 4, 8), (8,), (2,), (1, 2, 4, 8)])
def test_fused_encode_bitwise_identical_to_legacy(monkeypatch, bit_choices, chunk_rows):
    # chunk_rows=40 walks the 37-row pairs one kernel chunk each: chunking
    # must be invisible in the bytes.
    monkeypatch.setattr("repro.quant.fused._QUANT_CHUNK_ROWS", chunk_rows)
    legacy, fused, _ = _encode_both(7, bit_choices=bit_choices)
    assert set(legacy) == set(fused)
    for pair in legacy:
        pl, pf = legacy[pair], fused[pair]
        assert pl.wire_bytes == pf.wire_bytes
        assert pl.group_bits == pf.group_bits
        assert all(np.array_equal(a, b) for a, b in zip(pl.group_rows, pf.group_rows))
        assert all(np.array_equal(a, b) for a, b in zip(pl.streams, pf.streams))
        assert all(
            np.array_equal(a, b) for a, b in zip(pl.zero_points, pf.zero_points)
        )
        assert all(np.array_equal(a, b) for a, b in zip(pl.scales, pf.scales))
        assert np.array_equal(decode(pl), decode(pf))


def test_fused_encode_ragged_pair_sizes():
    gen = np.random.default_rng(3)
    dim = 7
    counts = np.array([1, 13, 0, 64, 5], dtype=np.int64)
    pairs = [(0, q + 1) for q in range(counts.size)]
    n = int(counts.sum())
    values = gen.normal(size=(128, dim)).astype(np.float32)
    cat_idx = gen.integers(0, values.shape[0], n)
    bits_cat = gen.choice([2, 4, 8], size=n)

    legacy_enc = MixedPrecisionEncoder(KeyedRounding(11))
    fused_enc = FusedStepEncoder(KeyedRounding(11))
    plan = fused_enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    fused = encode_step(fused_enc, plan, {0: values}, coords=("bwd", 2))

    bounds = np.concatenate([[0], np.cumsum(counts)])
    for i, pair in enumerate(pairs):
        sel = cat_idx[bounds[i] : bounds[i + 1]]
        pl = legacy_enc.encode(
            values[sel], bits_cat[bounds[i] : bounds[i + 1]], block=("bwd", 2, *pair)
        )
        assert pl.wire_bytes == fused[pair].wire_bytes
        assert np.array_equal(decode(pl), decode(fused[pair]))


def test_plan_cache_revalidates_on_bit_change():
    values, pairs, counts, cat_idx, bits_cat, dim = _step(5)
    enc = FusedStepEncoder(KeyedRounding(0))
    n = int(counts.sum())
    plan1 = enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    plan2 = enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    assert plan1 is plan2  # unchanged bits: cached
    new_bits = bits_cat.copy()
    new_bits[0] = 2 if bits_cat[0] != 2 else 4
    plan3 = enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, new_bits, dim)
    assert plan3 is not plan1


def test_decode_step_matches_payload_decode():
    """Every receiver lands, through its index, the rows the reference
    decode makes of the reference encoder's payload."""
    legacy, _, plan = _encode_both(21)
    landed = decode_step(plan)
    assert set(landed) == set(legacy)
    for pair, payload in legacy.items():
        assert landed[pair].tobytes() == decode(payload).tobytes()


def test_decode_cluster_step_groups_by_receiver():
    """Two receivers of one step, two sources each: each lands its own
    sources' rows, sources ascending, and nothing of the other's."""
    pairs = [(0, 10), (1, 10), (2, 11), (3, 11)]
    legacy, fused, plan = _encode_both(22, n_pairs=4, pairs=pairs)
    landed = decode_step(plan)
    assert set(landed) == set(pairs)
    for pair in pairs:
        assert landed[pair].tobytes() == decode(legacy[pair]).tobytes()
        assert landed[pair].tobytes() == decode(fused[pair]).tobytes()


def test_decode_cluster_step_empty_mailboxes():
    """A receiver no pair of the step feeds lands zeros in every slot."""
    _, _, plan = _encode_both(23, n_pairs=2)
    index = decode_index(plan, 99, {}, 3)
    assert index.srcs == () and not index.covers
    buf = np.full(index.shape, np.nan, dtype=np.float32)
    decode_cluster_step(index, buf)
    assert not buf.any()


def test_encoder_empty_step():
    enc = FusedStepEncoder(KeyedRounding(0))
    plan = enc.plan_for(
        "k", [], np.zeros(0, dtype=np.int64), [], np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64), 4,
    )
    assert encode_step(enc, plan, {}, coords=("fwd", 0)) == {}


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(0, 12), min_size=1, max_size=6).filter(any),
    dim=st.integers(1, 70),
    widths=st.sampled_from([(2, 4, 8), (1, 2, 4, 8), (1,), (2,), (8,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wire_bytes_are_the_formula(counts, dim, widths, seed):
    """Three statements of the wire size agree for any (rows, dim, widths,
    grouping): each payload's ``wire_bytes`` (what the transport is charged),
    the plan's stream spans (contiguous, ⌈n·dim·b/8⌉ bytes each, the
    payload's streams exactly those bytes of the wire buffer), and
    ``theory.wire_bytes`` summed over the pair's groups — which is also the
    per-message encoder's size."""
    gen = np.random.default_rng(seed)
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    pairs = [(0, q + 1) for q in range(counts.size)]
    bits = gen.choice(widths, n)
    values = gen.normal(size=(n, dim)).astype(np.float32)
    enc = FusedStepEncoder(KeyedRounding(2))
    plan = enc.plan_for("k", pairs, counts, [(0, 0, n)], np.arange(n), bits, dim)
    payloads = encode_step(enc, plan, {0: values}, coords=("fwd", 1))
    reference = MixedPrecisionEncoder(KeyedRounding(2))
    cursor, lo = 0, 0
    base = plan.wire.ctypes.data
    for pair, count in zip(pairs, counts):
        groups = plan.pair_groups[pair]
        formula = sum(wire_bytes(g.stop - g.start, dim, g.bits) for g in groups)
        assert payloads[pair].wire_bytes == formula
        want = reference.encode(values[lo : lo + count], bits[lo : lo + count],
                                ("fwd", 1, *pair))  # fmt: skip
        assert want.wire_bytes == formula
        for g, stream in zip(groups, payloads[pair].streams):
            assert g.offset == cursor and g.nbytes == packed_bytes(g.stop - g.start, dim, g.bits)
            assert stream.ctypes.data == base + g.offset and stream.nbytes == g.nbytes
            cursor += g.nbytes
        lo += count
    assert plan.wire.nbytes == cursor


def _snapshot(payloads):
    return {
        pair: [a.tobytes() for a in (*p.streams, *p.zero_points, *p.scales)]
        for pair, p in payloads.items()
    }


def test_payload_bytes_hold_until_the_plans_next_encode():
    """Payloads are read-only views of their plan's buffers: other plans'
    encodes, decodes and this plan's next gather leave them alone; the
    plan's next encode rewrites them in place."""
    values, pairs, counts, cat_idx, bits_cat, dim = _step(30)
    enc = FusedStepEncoder(KeyedRounding(1))
    n = int(counts.sum())
    plan = enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    payloads = encode_step(enc, plan, {0: values}, coords=("fwd", 0))
    before = _snapshot(payloads)
    other = enc.plan_for("other", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    encode_step(enc, other, {0: values + 1}, coords=("fwd", 0))
    decode_step(other)
    decode_step(plan)
    enc.gather_step(plan, {0: values * 2})
    assert _snapshot(payloads) == before
    with pytest.raises(ValueError, match="read-only"):
        payloads[pairs[0]].streams[0][0] = 0
    again = quantize_pack(enc, plan, coords=("fwd", 0))
    assert all(again[pair] is payloads[pair] for pair in pairs)
    assert _snapshot(payloads) != before


def test_gather_refuses_a_source_shorter_than_its_block():
    """The gather checks each device block's recorded row range against its
    source before it takes rows without a per-index check: a source one row
    short of the block's highest send row raises ``IndexError`` instead of
    wrapping around; a long enough one stages exactly ``take``'s rows."""
    values, _, counts, cat_idx, bits_cat, dim = _step(32)
    pairs = [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3)]
    enc = FusedStepEncoder(KeyedRounding(1))
    n, half = int(counts.sum()), int(counts[:2].sum())
    blocks = [(0, 0, half), (1, half, n)]
    plan = enc.plan_for("k", pairs, counts, blocks, cat_idx, bits_cat, dim)
    top = int(cat_idx[half:].max())
    with pytest.raises(IndexError, match="device 1"):
        enc.gather_step(plan, {0: values, 1: values[:top]})
    enc.gather_step(plan, {0: values, 1: values[: top + 1]})
    assert np.array_equal(plan.cat_buf, values[cat_idx])


def test_a_rebuilt_plan_frees_the_old_one_without_the_collector():
    """Nothing a plan hands out — payloads, shards, decode indices — refers
    back to it, so replacing it frees it by reference counting alone, even
    while its payloads are still held."""
    values, pairs, counts, cat_idx, bits_cat, dim = _step(31)
    enc = FusedStepEncoder(KeyedRounding(1))
    n = int(counts.sum())
    gc.disable()
    try:
        plan = enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
        enc.gather_step(plan, {0: values})
        for shard in enc.shards_for(plan, 3):
            enc.quantize_pack_shard(plan, shard, coords=("bwd", 1))
        payloads = quantize_pack(enc, plan, coords=("bwd", 1))
        rows = {0: np.arange(int(counts[0]))}
        index = decode_index(plan, 1, rows, int(counts[0]))
        decode_cluster_step(index, np.empty(index.shape, np.float32))
        old = weakref.ref(plan)
        del plan, index
        new_bits = bits_cat.copy()
        new_bits[0] = 2 if bits_cat[0] != 2 else 4
        enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, new_bits, dim)
        assert old() is None
        assert decode(payloads[(0, 1)]).shape == (int(counts[0]), dim)
    finally:
        gc.enable()


def _plan_state(plan):
    """A step's encoded bytes: its wire, zero points and scales."""
    return plan.wire.tobytes(), plan.zero_points.tobytes(), plan.scales.tobytes()


def test_steps_sharing_the_staging_encode_as_fresh_encoders(either_tier):
    """One encoder stages every step in one block: a 128-wide step, a
    64-wide step, then the 128-wide step again each emit the wire, zero
    points and scales a fresh encoder emits for that step alone.  A keyed
    replay of a pair inside the 64-wide step — where a dropped envelope is
    regenerated, between the step's encode and the next gather — emits
    that pair's bytes again."""
    steps = {dim: _step(40 + dim, n_pairs=4, rows=23, dim=dim) for dim in (128, 64)}

    def encoded(enc, dim):
        values, pairs, counts, cat_idx, bits_cat, _ = steps[dim]
        n = int(counts.sum())
        plan = enc.plan_for(dim, pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
        encode_step(enc, plan, {0: values}, coords=("fwd", 1))
        return plan

    fresh = {dim: _plan_state(encoded(FusedStepEncoder(KeyedRounding(7)), dim))
             for dim in steps}  # fmt: skip
    shared = FusedStepEncoder(KeyedRounding(7))
    wide = encoded(shared, 128)
    assert _plan_state(wide) == fresh[128]
    narrow = encoded(shared, 64)
    assert _plan_state(narrow) == fresh[64]
    assert np.shares_memory(narrow.cat_buf, wide.cat_buf)
    for i, pair in enumerate(narrow.pairs):
        payload = shared.quantize_pack_shard(
            narrow, pair_shard(narrow, i), coords=("fwd", 1)
        )[pair]
        assert _snapshot({pair: payload}) == _snapshot({pair: narrow.payloads[i]})
        assert _plan_state(narrow) == fresh[64]
    assert _plan_state(encoded(shared, 128)) == fresh[128]


def test_a_wider_step_moves_every_plan_to_one_larger_block(either_tier):
    """The staging grows only when a wider step first appears, and every
    cached plan then views the new block, so the old one is freed: the
    encoder holds one block (and, on the NumPy tier, one code block) at
    the widest step's size."""
    enc = FusedStepEncoder(KeyedRounding(3))
    plans = []
    for dim in (16, 48, 32):
        values, pairs, counts, cat_idx, bits_cat, _ = _step(50 + dim, dim=dim)
        n = int(counts.sum())
        plan = enc.plan_for(dim, pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
        encode_step(enc, plan, {0: values}, coords=("bwd", 0))
        plans.append(plan)
    widest = max(plan.n_total * plan.dim for plan in plans)
    assert enc._rows.nbytes == 4 * widest
    for plan in plans:
        assert plan.cat_buf.base is enc._rows
        assert plan.cat_buf.shape == (plan.n_total, plan.dim)
        assert plan.cat_buf.flags.c_contiguous
        if either_tier == "numpy":
            assert plan.codes_buf.base is enc._codes
        else:
            assert plan.codes_buf is None
    assert (enc._codes is None) == (either_tier == "compiled")
    if enc._codes is not None:
        assert enc._codes.nbytes == widest


def test_a_smaller_take_views_the_larger_takes_block():
    """``DecodeWorkspace.take`` hands out C-contiguous float32 views of one
    buffer per key that grows only: a smaller request after a larger one is
    the front of the same block; another key gets a buffer of its own."""
    ws = DecodeWorkspace()
    wide = ws.take(("block", 0), (10, 128))
    narrow = ws.take(("block", 0), (10, 64))
    assert narrow.shape == (10, 64) and narrow.dtype == np.float32
    assert narrow.flags.c_contiguous
    assert narrow.ctypes.data == wide.ctypes.data
    assert narrow.base is wide.base
    again = ws.take(("block", 0), (10, 128))
    assert again.ctypes.data == wide.ctypes.data
    assert not np.shares_memory(ws.take(("block", 1), (10, 64)), wide)


def test_racing_shards_allocate_one_code_block(kernel_tier):
    """NumPy tier: a step's first encode allocates the encoder's code block
    from whichever worker's shard gets there first.  Eight shards on eight
    threads, switching as often as the interpreter allows, leave one code
    block that the plan views and emit a single-shard encode's bytes."""
    values, pairs, counts, cat_idx, bits_cat, dim = _step(60, n_pairs=16, rows=29)
    n = int(counts.sum())

    def fresh():
        enc = FusedStepEncoder(KeyedRounding(5))
        plan = enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
        enc.gather_step(plan, {0: values})
        return enc, plan

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with kernel_tier(None):
            enc, plan = fresh()
            want = _snapshot(quantize_pack(enc, plan, coords=("fwd", 2)))
            for _ in range(10):
                enc, plan = fresh()
                shards = enc.shards_for(plan, 8)
                with ThreadPoolExecutor(8) as pool:
                    jobs = [
                        pool.submit(enc.quantize_pack_shard, plan, s, coords=("fwd", 2))
                        for s in shards
                    ]
                    got = {}
                    for job in jobs:
                        got.update(job.result(timeout=30))
                assert len(shards) == 8 and _snapshot(got) == want
                assert plan.codes_buf.base is enc._codes
    finally:
        sys.setswitchinterval(interval)


def test_the_numpy_decode_keeps_no_scratch(kernel_tier):
    """NumPy tier: a landing's scratch lives for the call — nothing stays
    allocated after it, and its peak is bounded by the receiver's rows
    (codes, de-quantized rows, per-row index and metadata gathers), not by
    the step's.  The landed rows are the reference decode's."""
    legacy, _, plan = _encode_both(70, n_pairs=6, rows=40, dim=16)
    index = decode_index(plan, 3, {0: np.arange(40)}, 40)
    buf = np.empty(index.shape, dtype=np.float32)
    with kernel_tier(None):
        decode_step(plan)  # warm caches: the plan's indices, the packer's tables
        tracemalloc.start()
        try:
            decode_cluster_step(index, buf)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert held < 1024  # NumPy's small-buffer cache, not a receiver's rows
    assert peak <= 40 * 16 * (4 + 1) + 40 * 8 * 4 + 8192
    assert buf.tobytes() == decode(legacy[(0, 3)]).tobytes()
