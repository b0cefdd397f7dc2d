"""Encoder-level equivalence: the step-fused encoder emits, pair for pair,
the bytes of the per-message :class:`MixedPrecisionEncoder` — laid out in
the plan's wire buffer as the byte formula says, and held there until the
plan's next encode."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.fused import (
    FusedStepEncoder,
    decode_cluster_step,
    decode_index,
    decode_step,
)
from repro.quant.mixed import MixedPrecisionEncoder
from repro.quant.stochastic import KeyedRounding
from repro.quant.theory import packed_bytes, wire_bytes


def _step(seed, n_pairs=5, rows=37, dim=9, bit_choices=(2, 4, 8)):
    gen = np.random.default_rng(seed)
    n = n_pairs * rows
    values = gen.normal(size=(300, dim)).astype(np.float32)
    cat_idx = gen.integers(0, values.shape[0], n)
    bits_cat = gen.choice(bit_choices, size=n)
    pairs = [(0, q + 1) for q in range(n_pairs)]
    counts = np.full(n_pairs, rows, dtype=np.int64)
    return values, pairs, counts, cat_idx, bits_cat, dim


def _encode_both(seed, **kw):
    values, pairs, counts, cat_idx, bits_cat, dim = _step(seed, **kw)
    legacy_enc = MixedPrecisionEncoder(KeyedRounding(seed + 99))
    fused_enc = FusedStepEncoder(KeyedRounding(seed + 99))

    n = int(counts.sum())
    plan = fused_enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    fused_payloads = fused_enc.encode_step(plan, {0: values}, coords=("fwd", 0))

    bounds = np.concatenate([[0], np.cumsum(counts)])
    legacy_payloads = {}
    for i, pair in enumerate(pairs):
        sel = cat_idx[bounds[i] : bounds[i + 1]]
        legacy_payloads[pair] = legacy_enc.encode(
            values[sel], bits_cat[bounds[i] : bounds[i + 1]], block=("fwd", 0, *pair)
        )
    return legacy_payloads, fused_payloads


@pytest.mark.parametrize("chunk_rows", [4096, 40])
@pytest.mark.parametrize("bit_choices", [(2, 4, 8), (8,), (2,), (1, 2, 4, 8)])
def test_fused_encode_bitwise_identical_to_legacy(monkeypatch, bit_choices, chunk_rows):
    # chunk_rows=40 walks the 37-row pairs one kernel chunk each: chunking
    # must be invisible in the bytes.
    monkeypatch.setattr("repro.quant.fused._QUANT_CHUNK_ROWS", chunk_rows)
    legacy, fused = _encode_both(7, bit_choices=bit_choices)
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
        assert np.array_equal(pl.decode(), pf.decode())


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
    fused = fused_enc.encode_step(plan, {0: values}, coords=("bwd", 2))

    bounds = np.concatenate([[0], np.cumsum(counts)])
    for i, pair in enumerate(pairs):
        sel = cat_idx[bounds[i] : bounds[i + 1]]
        pl = legacy_enc.encode(
            values[sel], bits_cat[bounds[i] : bounds[i + 1]], block=("bwd", 2, *pair)
        )
        assert pl.wire_bytes == fused[pair].wire_bytes
        assert np.array_equal(pl.decode(), fused[pair].decode())


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
    _, fused = _encode_both(21)
    mailbox = {dst: p for (_, dst), p in fused.items()}
    decoded = decode_step(mailbox)
    for src, payload in mailbox.items():
        assert np.array_equal(decoded[src], payload.decode())


def test_decode_cluster_step_groups_by_receiver():
    _, fused = _encode_both(22, n_pairs=4)
    items = list(fused.items())
    collects = {
        10: {src: p for (src, _), p in items[:2]},
        11: {src: p for (src, _), p in items[2:]},
    }
    decoded = decode_cluster_step(collects)
    assert set(decoded) == {10, 11}
    for dst, mailbox in collects.items():
        for src, payload in mailbox.items():
            assert np.array_equal(decoded[dst][src], payload.decode())


def test_decode_cluster_step_empty_mailboxes():
    assert decode_cluster_step({0: {}, 1: {}}) == {0: {}, 1: {}}


def test_encoder_empty_step():
    enc = FusedStepEncoder(KeyedRounding(0))
    plan = enc.plan_for(
        "k", [], np.zeros(0, dtype=np.int64), [], np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64), 4,
    )
    assert enc.encode_step(plan, {}, coords=("fwd", 0)) == {}


def test_quantize_with_noise_matches_stochastic():
    from repro.quant.stochastic import quantize_stochastic, quantize_with_noise

    h = np.random.default_rng(1).normal(size=(50, 8)).astype(np.float32)
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    q1 = quantize_stochastic(h, 4, r1)
    q2 = quantize_with_noise(h, 4, r2.random(h.shape))
    assert np.array_equal(q1.codes, q2.codes)
    assert np.array_equal(q1.zero_point, q2.zero_point)
    assert np.array_equal(q1.scale, q2.scale)


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
    payloads = enc.encode_step(plan, {0: values}, coords=("fwd", 1))
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
    payloads = enc.encode_step(plan, {0: values}, coords=("fwd", 0))
    before = _snapshot(payloads)
    other = enc.plan_for("other", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    decode_step({dst: p for (_, dst), p in enc.encode_step(
        other, {0: values + 1}, coords=("fwd", 0)).items()})  # fmt: skip
    decode_step({dst: p for (_, dst), p in payloads.items()})
    enc.gather_step(plan, {0: values * 2})
    assert _snapshot(payloads) == before
    with pytest.raises(ValueError, match="read-only"):
        payloads[pairs[0]].streams[0][0] = 0
    again = enc.quantize_pack_step(plan, coords=("fwd", 0))
    assert all(again[pair] is payloads[pair] for pair in pairs)
    assert _snapshot(payloads) != before


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
        payloads = enc.quantize_pack_step(plan, coords=("bwd", 1))
        rows = {0: np.arange(int(counts[0]))}
        index = decode_index(plan, 1, rows, int(counts[0]))
        decode_cluster_step({1: {0: payloads[(0, 1)]}}, into={
            1: (index, np.empty(index.shape, np.float32))})  # fmt: skip
        old = weakref.ref(plan)
        del plan, index
        new_bits = bits_cat.copy()
        new_bits[0] = 2 if bits_cat[0] != 2 else 4
        enc.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, new_bits, dim)
        assert old() is None
        assert payloads[(0, 1)].decode().shape == (int(counts[0]), dim)
    finally:
        gc.enable()
